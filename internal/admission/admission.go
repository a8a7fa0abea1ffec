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
// Both carry a Ghost directory — recently evicted doc IDs and sizes, no
// bodies — so documents that were just evicted re-enter without being
// re-filtered. See docs/ADMISSION.md for the design discussion.
package admission

import (
	"fmt"
	"strconv"
	"strings"

	"webcachesim/internal/policy"
)

// ParseSpec parses an admission scheme specification of the form
// "scheme[:opt...]":
//
//	none                 no admission; every candidate enters
//	tinylfu[:window=N]   frequency filter, aging every N touches
//	arc-ghost            adaptive ghost-directed probation filter
//
// The returned factory builds one admitter per cache (or per shard),
// sized for that cache's byte capacity.
func ParseSpec(s string) (policy.AdmitterFactory, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), ":")
	switch parts[0] {
	case "", "none":
		if len(parts) > 1 {
			return policy.AdmitterFactory{}, fmt.Errorf("admission: scheme %q takes no options", parts[0])
		}
		return policy.NoAdmission(), nil
	case "tinylfu":
		var window int64
		for i, p := range parts[1:] {
			v, ok := strings.CutPrefix(p, "window=")
			n, err := strconv.ParseInt(v, 10, 64)
			switch {
			case !ok || err != nil || n <= 0:
				return policy.AdmitterFactory{}, fmt.Errorf("admission: bad option %q in %q (want window=N)", p, s)
			case i > 0:
				return policy.AdmitterFactory{}, fmt.Errorf("admission: repeated option %q in %q", p, s)
			}
			window = n
		}
		return policy.AdmitterFactory{
			Name: "tinylfu",
			New: func(capacityBytes int64) policy.Admitter {
				return NewTinyLFU(capacityBytes, window)
			},
		}, nil
	case "arc-ghost", "arcghost":
		if len(parts) > 1 {
			return policy.AdmitterFactory{}, fmt.Errorf("admission: scheme %q takes no options", parts[0])
		}
		return policy.AdmitterFactory{
			Name: "arc-ghost",
			New: func(capacityBytes int64) policy.Admitter {
				return NewARCGhost(capacityBytes)
			},
		}, nil
	default:
		return policy.AdmitterFactory{}, fmt.Errorf("admission: unknown scheme %q", parts[0])
	}
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
