// Package admission implements cache admission filters: the decision of
// whether a missed document may enter the cache at all, made before the
// replacement policy evicts anything for it. The paper's six schemes
// admit unconditionally; this package adds the orthogonal axis the study
// never evaluated.
//
// Two filters are provided behind the policy.Admitter interface, so they
// compose with every replacement scheme in both the simulator and the
// live sharded cache:
//
//   - TinyLFU admits a candidate only if its estimated request frequency
//     (doorkeeper Bloom filter + aged space-saving counts, from
//     internal/sketch) beats the prospective eviction victim's.
//   - ARCGhost bounds the bytes held by not-yet-re-referenced documents
//     and adapts that bound from ghost-directory feedback, ARC-style.
//
// Both carry a Ghost directory — recently evicted URLs and sizes, no
// bodies — so documents that were just evicted re-enter without being
// re-filtered. Admitters key everything they remember by URL, not ID.
// See docs/ADMISSION.md for the design discussion.
package admission

import (
	"fmt"
	"strings"

	"webcachesim/internal/policy"
)

// ParseSpec parses an admission scheme specification, one of
//
//	none        no admission; every candidate enters
//	tinylfu     frequency filter, aging every windowFactor × items touches
//	arc-ghost   adaptive ghost-directed probation filter
//
// No scheme takes an option. An unknown scheme, or any option, is refused
// with the list of valid spellings. The returned factory builds one
// admitter per cache (or per shard), sized for that cache's byte capacity.
func ParseSpec(s string) (policy.AdmitterFactory, error) {
	const valid = "want none, tinylfu or arc-ghost"
	scheme, opt, hasOpt := strings.Cut(strings.ToLower(strings.TrimSpace(s)), ":")
	var f policy.AdmitterFactory
	switch scheme {
	case "", "none":
		f = policy.NoAdmission()
	case "tinylfu":
		f = policy.AdmitterFactory{
			Name: "tinylfu",
			New: func(capacityBytes int64) policy.Admitter {
				return NewTinyLFU(capacityBytes)
			},
		}
	case "arc-ghost", "arcghost":
		f = policy.AdmitterFactory{
			Name: "arc-ghost",
			New: func(capacityBytes int64) policy.Admitter {
				return NewARCGhost(capacityBytes)
			},
		}
	default:
		return policy.AdmitterFactory{}, fmt.Errorf("admission: unknown scheme %q (%s)", scheme, valid)
	}
	if hasOpt {
		return policy.AdmitterFactory{}, fmt.Errorf("admission: scheme %q takes no option %q (%s)", scheme, opt, valid)
	}
	return f, nil
}

// MustSpec is ParseSpec for statically known specs; it panics on error.
func MustSpec(s string) policy.AdmitterFactory {
	f, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return f
}

// Specs returns the admission grid used by the experiments: no
// admission, TinyLFU, and the adaptive ghost-directed filter.
func Specs() []policy.AdmitterFactory {
	return []policy.AdmitterFactory{
		policy.NoAdmission(),
		MustSpec("tinylfu"),
		MustSpec("arc-ghost"),
	}
}
