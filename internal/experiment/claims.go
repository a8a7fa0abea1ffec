package experiment

import (
	"fmt"
	"math"

	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
)

// claim is one qualitative statement of the paper as a value: a name and
// the function that holds it against an Env's measurements. Every verdict
// line of the report is one claim in some experiment's claims.
type claim struct {
	name string
	eval func(*Env) (pass bool, detail string, err error)
}

// ShapeCheck is a claim evaluated against the measured results.
type ShapeCheck struct {
	// Name states the claim being checked.
	Name string
	// Pass reports whether the measurement supports the claim.
	Pass bool
	// Detail quantifies the comparison.
	Detail string
}

// check evaluates the claim on one environment (one seed's measurements).
func (c claim) check(e *Env) (ShapeCheck, error) {
	pass, detail, err := c.eval(e)
	return ShapeCheck{Name: c.name, Pass: pass, Detail: detail}, err
}

// pred is the plain claim: a predicate over one input, which also words
// the detail.
func pred[T any](name string, in input[T], holds func(T) (pass bool, detail string)) claim {
	return claim{name, func(e *Env) (bool, string, error) {
		v, err := in(e)
		if err != nil {
			return false, "", err
		}
		pass, detail := holds(v)
		return pass, detail, nil
	}}
}

// measure reads one rate off one simulation result.
type measure func(*core.Result) float64

// Measures used throughout the figures.
func hitRate(cl doctype.Class) measure {
	return func(r *core.Result) float64 { return r.ByClass[cl].HitRate() }
}

func byteHitRate(cl doctype.Class) measure {
	return func(r *core.Result) float64 { return r.ByClass[cl].ByteHitRate() }
}

func overallHitRate(r *core.Result) float64     { return r.Overall.HitRate() }
func overallByteHitRate(r *core.Result) float64 { return r.Overall.ByteHitRate() }

// comparisonSlack absorbs simulation noise in shape comparisons: a claim
// "A beats B" passes at a grid point when A ≥ B − slack.
const comparisonSlack = 0.005

// beats is the comparative claim "policy a beats policy b" on a profile's
// study grid: it passes when a ≥ b (within slack) at a strict majority of
// the cache sizes where both were simulated. Detail reports the per-size
// tally and the mean margin.
func beats(name, profile, a, b string, m measure) claim {
	return pred(name, study(profile), func(g *core.Grid) (bool, string) { return majority(g, a, b, m) })
}

func majority(g *core.Grid, a, b string, m measure) (bool, string) {
	wins, total := 0, 0
	var marginSum float64
	for _, c := range g.Capacities {
		va, vb := g.Value(a, c, m), g.Value(b, c, m)
		if math.IsNaN(va) || math.IsNaN(vb) {
			continue
		}
		total++
		marginSum += va - vb
		if va >= vb-comparisonSlack {
			wins++
		}
	}
	return total > 0 && wins*2 > total, fmt.Sprintf("%s ≥ %s at %d/%d sizes, mean margin %+.4f",
		a, b, wins, total, safeDiv(marginSum, float64(total)))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
