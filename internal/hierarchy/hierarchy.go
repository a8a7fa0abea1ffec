// Package hierarchy simulates a tree of caching proxies — a chain, or a
// consistent-hash fleet under a chain of parents: requests enter the
// lowest (institutional) level, and each level's misses form the request
// stream of the level above — exactly how the paper's traces came
// to be: both DFN and RTP were recorded at *upper-level* proxies in core
// networks, so their streams had already been filtered by lower-level
// caches. Filtering removes short-distance re-references and flattens the
// popularity distribution, which is why §2 measures small α values and why
// GD*'s frequency signal degrades on RTP; this package lets that mechanism
// be reproduced rather than assumed (see the filtering test and the
// hierarchy example).
package hierarchy

import (
	"errors"
	"fmt"

	"webcachesim/internal/core"
	"webcachesim/internal/policy"
)

// LevelConfig configures one cache level.
type LevelConfig struct {
	// Name labels the level in results ("L1", "parent", ...).
	Name string
	// Capacity is the level's cache size in bytes.
	Capacity int64
	// Policy builds the level's replacement scheme.
	Policy policy.Factory
}

// LevelResult reports one level's outcome.
type LevelResult struct {
	// Name is the level's label.
	Name string `json:"name"`
	// Result is the level's full simulation result; its Requests count is
	// the number of requests that reached the level (the miss stream of
	// the level below).
	Result *core.Result `json:"result"`
}

// New builds a linear chain of caches from the bottom level up — a
// Cluster whose single leaf owns every document and whose remaining
// levels are its parents. At least one level is required.
// modifyThreshold follows core.BuildWorkload semantics.
func New(levels []LevelConfig, modifyThreshold float64) (*Cluster, error) {
	if len(levels) == 0 {
		return nil, errors.New("hierarchy: at least one level required")
	}
	c := &Cluster{}
	for i, lc := range levels {
		name := lc.Name
		if name == "" {
			name = fmt.Sprintf("L%d", i+1)
		}
		if err := c.add(i > 0, name, lc.Capacity, lc.Policy, modifyThreshold); err != nil {
			return nil, err
		}
	}
	return c, nil
}
