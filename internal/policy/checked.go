package policy

import "fmt"

// ContractError reports a violation of the Policy contract detected by a
// Checked wrapper. It is delivered by panic: a violated invariant means
// the simulation's accounting is already corrupt, and continuing would
// silently skew the study's numbers.
type ContractError struct {
	// Policy is the display name of the offending scheme.
	Policy string
	// Op is the Policy method during which the violation was detected.
	Op string
	// Detail describes the violated invariant.
	Detail string
}

func (e *ContractError) Error() string {
	return fmt.Sprintf("policy: contract violation in %s.%s: %s", e.Policy, e.Op, e.Detail)
}

// checked wraps a Policy with runtime assertions of the documented
// contract. It shadow-tracks the set of documents the inner policy should
// be holding and cross-checks it against Len and every return value.
type checked struct {
	name    string
	inner   Policy
	tracked map[*Doc]bool
}

var _ Policy = (*checked)(nil)

// Checked wraps p, the scheme whose display name is name, so that every
// call asserts the Policy contract:
//
//   - Len always equals the number of documents inserted and not yet
//     evicted or removed (no drift, no lying Len).
//   - Insert of an already-tracked document (double insert) is rejected.
//   - Hit and Remove behave per contract: Hit requires a tracked document,
//     Remove of an untracked document must be a no-op.
//   - Evict returns false exactly when the policy tracks nothing; a
//     returned victim must be non-nil and actually tracked.
//
// Violations panic with a *ContractError that carries name. The wrapper
// is the executable form of the comments in policy.go; a test that wants
// it wraps a Factory's New, as the policy and simulator tests do.
// Wrapping an already-checked policy returns it unchanged.
func Checked(name string, p Policy) Policy {
	if _, ok := p.(*checked); ok {
		return p
	}
	return &checked{name: name, inner: p, tracked: map[*Doc]bool{}}
}

func (c *checked) fail(op, format string, args ...any) {
	panic(&ContractError{Policy: c.name, Op: op, Detail: fmt.Sprintf(format, args...)})
}

// sync asserts that the inner policy's Len agrees with the shadow set.
func (c *checked) sync(op string) {
	if n := c.inner.Len(); n != len(c.tracked) {
		c.fail(op, "Len() = %d, but %d documents are tracked", n, len(c.tracked))
	}
}

// Insert implements Policy.
func (c *checked) Insert(doc *Doc) {
	if doc == nil {
		c.fail("Insert", "nil document")
	}
	if c.tracked[doc] {
		c.fail("Insert", "double insert of %q", doc.Key)
	}
	c.inner.Insert(doc)
	c.tracked[doc] = true
	c.sync("Insert")
}

// Hit implements Policy.
func (c *checked) Hit(doc *Doc) {
	if doc == nil {
		c.fail("Hit", "nil document")
	}
	if !c.tracked[doc] {
		c.fail("Hit", "hit on untracked document %q", doc.Key)
	}
	c.inner.Hit(doc)
	c.sync("Hit")
}

// Evict implements Policy.
func (c *checked) Evict() (*Doc, bool) {
	c.sync("Evict")
	victim, ok := c.inner.Evict()
	if !ok {
		if len(c.tracked) != 0 {
			c.fail("Evict", "reported empty while %d documents are tracked", len(c.tracked))
		}
		return nil, false
	}
	if victim == nil {
		c.fail("Evict", "returned a nil victim with ok = true")
	}
	if !c.tracked[victim] {
		c.fail("Evict", "evicted untracked document %q", victim.Key)
	}
	delete(c.tracked, victim)
	c.sync("Evict")
	return victim, true
}

// Peek implements Policy: the prospective victim must be tracked, and
// peeking must not change Len.
func (c *checked) Peek() (*Doc, bool) {
	c.sync("Peek")
	victim, ok := c.inner.Peek()
	if !ok {
		if len(c.tracked) != 0 {
			c.fail("Peek", "reported empty while %d documents are tracked", len(c.tracked))
		}
		return nil, false
	}
	if victim == nil {
		c.fail("Peek", "returned a nil victim with ok = true")
	}
	if !c.tracked[victim] {
		c.fail("Peek", "peeked untracked document %q", victim.Key)
	}
	c.sync("Peek")
	return victim, true
}

// Remove implements Policy.
func (c *checked) Remove(doc *Doc) {
	if doc == nil {
		c.fail("Remove", "nil document")
	}
	wasTracked := c.tracked[doc]
	c.inner.Remove(doc)
	if wasTracked {
		delete(c.tracked, doc)
	}
	// Contract: removing an untracked document is a no-op, so the shadow
	// set is correct in both branches.
	c.sync("Remove")
}

// Len implements Policy.
func (c *checked) Len() int {
	c.sync("Len")
	return c.inner.Len()
}

// Unwrap returns the wrapped policy (for tests and instrumentation).
func (c *checked) Unwrap() Policy { return c.inner }
