// Package units parses byte quantities for command-line flags and
// topology files ("64MB", "1.5GiB", bare byte counts), and the cache-size
// percentage lists of the commands' -size-pcts flags ("0.5,1,2,4").
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Binary unit multipliers.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
)

// suffixes is ordered longest-first so "MiB" is not parsed as "B".
var suffixes = []struct {
	name string
	mult int64
}{
	{"GIB", GB}, {"GB", GB}, {"G", GB},
	{"MIB", MB}, {"MB", MB}, {"M", MB},
	{"KIB", KB}, {"KB", KB}, {"K", KB},
	{"B", 1},
}

// ParseBytes parses a human byte size: a float with an optional binary
// suffix (B, KB/KiB/K, MB/MiB/M, GB/GiB/G, case-insensitive). The result
// must be at least one byte and below 2^63.
func ParseBytes(s string) (int64, error) {
	mult := int64(1)
	upper := strings.ToUpper(strings.TrimSpace(s))
	for _, suf := range suffixes {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.mult
			upper = strings.TrimSpace(strings.TrimSuffix(upper, suf.name))
			break
		}
	}
	v, err := strconv.ParseFloat(upper, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad size %q: %w", s, err)
	}
	// The range check precedes the conversion: int64 of a NaN, an
	// infinity or anything past 2^63 is implementation-specific, so the
	// verdict on "inf" or "1e30GB" would depend on GOARCH.
	b := v * float64(mult)
	if !(b >= 1 && b < 1<<63) {
		return 0, fmt.Errorf("units: size %q must be at least 1 byte and below 2^63", s)
	}
	return int64(b), nil
}

// ParsePercents parses a comma-separated list of positive, finite
// percentages, such as "0.5,1,2,4", in the order given.
func ParsePercents(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		pct, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(pct > 0 && pct <= math.MaxFloat64) { // NaN and infinities included
			return nil, fmt.Errorf("units: percentage %q must be a positive, finite number", part)
		}
		out = append(out, pct)
	}
	return out, nil
}
