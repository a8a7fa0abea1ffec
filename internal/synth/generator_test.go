package synth

import (
	"math"
	"strings"
	"testing"

	"webcachesim/internal/doctype"
	"webcachesim/internal/trace"
)

func TestProfilesValidate(t *testing.T) {
	for _, p := range []*Profile{DFNProfile(), RTPProfile()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"dfn", "DFN", "rtp", "NLANR"} {
		if _, err := ProfileByName(name); err != nil {
			t.Errorf("ProfileByName(%q): %v", name, err)
		}
	}
	if _, err := ProfileByName("bogus"); err == nil {
		t.Error("bogus profile accepted")
	}
}

func TestProfileValidationCatchesErrors(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Profile)
	}{
		{"zero requests", func(p *Profile) { p.Requests = 0 }},
		{"bad docs per request", func(p *Profile) { p.DocsPerRequest = 0 }},
		{"no classes", func(p *Profile) { p.Classes = nil }},
		{"share sum", func(p *Profile) { p.Classes[0].RequestShare += 0.5 }},
		{"distinct sum", func(p *Profile) { p.Classes[0].DistinctShare += 0.5 }},
		{"mean below median", func(p *Profile) { p.Classes[0].MeanSizeKB = 0.1 }},
		{"zero median", func(p *Profile) { p.Classes[0].MedianSizeKB = 0 }},
		{"zero alpha", func(p *Profile) { p.Classes[0].Alpha = 0 }},
		{"zero beta", func(p *Profile) { p.Classes[0].Beta = 0 }},
		{"corr prob 1", func(p *Profile) { p.Classes[0].CorrProb = 1 }},
		{"unset class", func(p *Profile) { p.Classes[0].Class = doctype.Unknown }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			p := DFNProfile()
			tt.mut(p)
			if err := p.Validate(); err == nil {
				t.Errorf("mutation %q not caught", tt.name)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := Options{Seed: 7, Requests: 2000}
	a, err := Generate(DFNProfile(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DFNProfile(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2000 || len(b) != 2000 {
		t.Fatalf("lengths %d, %d; want 2000", len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("request %d differs between same-seed runs", i)
		}
	}
	c, err := Generate(DFNProfile(), Options{Seed: 8, Requests: 2000})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].URL == c[i].URL {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateRequestShapes(t *testing.T) {
	reqs, err := Generate(DFNProfile(), Options{Seed: 1, Requests: 5000})
	if err != nil {
		t.Fatal(err)
	}
	var lastTime int64
	for i, r := range reqs {
		if r.Status != 200 || r.Method != "GET" {
			t.Fatalf("request %d: status/method %d %q", i, r.Status, r.Method)
		}
		if r.UnixMillis <= lastTime {
			t.Fatalf("request %d: timestamps not strictly increasing", i)
		}
		lastTime = r.UnixMillis
		if r.DocSize < 64 {
			t.Fatalf("request %d: doc size %d below floor", i, r.DocSize)
		}
		if r.TransferSize < 1 || r.TransferSize > r.DocSize {
			t.Fatalf("request %d: transfer %d outside (0, %d]", i, r.TransferSize, r.DocSize)
		}
		if !strings.HasPrefix(r.URL, "http://DFN.synth.example/") {
			t.Fatalf("request %d: URL %q", i, r.URL)
		}
		if got := doctype.Classify(r.ContentType, r.URL); got != r.Class {
			t.Fatalf("request %d: recorded class %v but Classify says %v (%q, %q)",
				i, r.Class, got, r.ContentType, r.URL)
		}
	}
	// Every generated request survives the §2 filter.
	f := trace.NewFilterReader(trace.NewSliceReader(reqs))
	for {
		if _, err := f.Next(); err != nil {
			break
		}
	}
	if st := f.Stats(); st.Passed != int64(len(reqs)) {
		t.Fatalf("filter passed %d of %d generated requests: %+v", st.Passed, len(reqs), st)
	}
}

func TestGenerateClassMix(t *testing.T) {
	p := DFNProfile()
	reqs, err := Generate(p, Options{Seed: 2, Requests: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[doctype.Class]int{}
	for _, r := range reqs {
		counts[r.Class]++
	}
	for _, cp := range p.Classes {
		got := float64(counts[cp.Class]) / float64(len(reqs))
		tol := 0.02 + cp.RequestShare*0.15
		if math.Abs(got-cp.RequestShare) > tol {
			t.Errorf("%v request share %v, want %v ± %v", cp.Class, got, cp.RequestShare, tol)
		}
	}
}

func TestGenerateModificationsWithinWindow(t *testing.T) {
	// Track per-URL size changes: every change must be under 5% (a
	// modification) — interruptions affect TransferSize, never DocSize.
	reqs, err := Generate(DFNProfile(), Options{Seed: 3, Requests: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]int64{}
	changes := 0
	for _, r := range reqs {
		if prev, ok := last[r.URL]; ok && prev != r.DocSize {
			changes++
			delta := math.Abs(float64(r.DocSize-prev)) / float64(prev)
			if delta >= 0.05 {
				t.Fatalf("doc %s size changed by %v (≥5%%)", r.URL, delta)
			}
		}
		last[r.URL] = r.DocSize
	}
	if changes == 0 {
		t.Error("no modifications generated")
	}
}

func TestGenerateInterruptions(t *testing.T) {
	reqs, err := Generate(DFNProfile(), Options{Seed: 4, Requests: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	interrupted := 0
	for _, r := range reqs {
		if r.TransferSize < r.DocSize {
			interrupted++
			frac := float64(r.TransferSize) / float64(r.DocSize)
			if frac > 0.95 {
				t.Fatalf("interruption delivered %v of the doc — inside the 5%% modification window", frac)
			}
		}
	}
	if interrupted == 0 {
		t.Error("no interrupted transfers generated")
	}
}

func TestGenerateScaleAndOverride(t *testing.T) {
	p := DFNProfile()
	p.Requests = 1000
	g, err := NewGenerator(p, Options{Seed: 1, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if g.Total() != 500 {
		t.Errorf("scaled total = %d, want 500", g.Total())
	}
	g, err = NewGenerator(p, Options{Seed: 1, Requests: 123})
	if err != nil {
		t.Fatal(err)
	}
	if g.Total() != 123 {
		t.Errorf("override total = %d, want 123", g.Total())
	}
}

func TestGenerateToWriter(t *testing.T) {
	var sb strings.Builder
	w := trace.NewInternedWriter(&sb)
	g, err := NewGenerator(DFNProfile(), Options{Seed: 1, Requests: 500})
	if err != nil {
		t.Fatal(err)
	}
	n, err := g.WriteAll(w)
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("wrote %d, want 500", n)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	reqs, err := trace.ReadAll(trace.NewInternedReader(strings.NewReader(sb.String())))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 500 {
		t.Errorf("re-read %d records, want 500", len(reqs))
	}
	// The binary format preserves DocSize, so the modification model
	// survives a file round-trip.
	if reqs[0].DocSize == 0 {
		t.Error("DocSize lost in round-trip")
	}
}

func TestGeneratorNilAfterTotal(t *testing.T) {
	g, err := NewGenerator(DFNProfile(), Options{Seed: 1, Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if g.Next() == nil {
			t.Fatalf("Next returned nil at %d of 3", i)
		}
	}
	if g.Next() != nil {
		t.Error("Next after total should return nil")
	}
}

// TestNextSlabOwnership: requests share slabs but never a slot. The
// neighbours across the first slab boundary are distinct, a request kept
// from the first slab is not rewritten by later calls, and Next after the
// last request allocates nothing.
func TestNextSlabOwnership(t *testing.T) {
	const n = slabLen + 1000
	g, err := NewGenerator(DFNProfile(), Options{Seed: 9, Requests: n, Clients: 16})
	if err != nil {
		t.Fatal(err)
	}
	var (
		reqs  []*trace.Request
		taken []trace.Request // each request as Next returned it
	)
	for r := g.Next(); r != nil; r = g.Next() {
		reqs = append(reqs, r)
		taken = append(taken, *r)
	}
	if len(reqs) != n {
		t.Fatalf("%d requests, want %d", len(reqs), n)
	}
	// 1 000 Next calls have run since the first slab was handed out.
	for i := 0; i < slabLen; i++ {
		if *reqs[i] != taken[i] {
			t.Fatalf("request %d of the first slab changed:\n got %+v\nwant %+v", i, *reqs[i], taken[i])
		}
	}
	if reqs[slabLen-1] == reqs[slabLen] {
		t.Fatalf("requests %d and %d share a slot", slabLen-1, slabLen)
	}
	for _, w := range []struct{ written, other int }{{slabLen - 1, slabLen}, {slabLen, slabLen - 1}} {
		r := reqs[w.written]
		r.URL, r.DocSize, r.UnixMillis = "written", -1, -1
		if *reqs[w.other] != taken[w.other] {
			t.Errorf("writing request %d changed request %d:\n got %+v\nwant %+v",
				w.written, w.other, *reqs[w.other], taken[w.other])
		}
		*r = taken[w.written]
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if g.Next() != nil {
			t.Fatal("Next after the last request returned a request")
		}
	}); allocs != 0 {
		t.Errorf("Next after the last request allocates %v times, want 0", allocs)
	}
}

func TestGenerateClients(t *testing.T) {
	reqs, err := Generate(DFNProfile(), Options{Seed: 6, Requests: 20_000, Clients: 500})
	if err != nil {
		t.Fatal(err)
	}
	clients := map[string]int{}
	for _, r := range reqs {
		if !strings.HasPrefix(r.Client, "10.") {
			t.Fatalf("client %q not an address", r.Client)
		}
		clients[r.Client]++
	}
	if len(clients) < 300 || len(clients) > 500 {
		t.Errorf("distinct clients = %d, want most of 500", len(clients))
	}
	// Activity must be skewed: the busiest client far above the mean.
	maxCount := 0
	for _, c := range clients {
		if c > maxCount {
			maxCount = c
		}
	}
	mean := len(reqs) / len(clients)
	if maxCount < 3*mean {
		t.Errorf("busiest client %d requests vs mean %d; want Zipf skew", maxCount, mean)
	}
}

func TestGenerateSingleClientDefault(t *testing.T) {
	reqs, err := Generate(DFNProfile(), Options{Seed: 6, Requests: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if r.Client != "synth" {
			t.Fatalf("client = %q, want synth", r.Client)
		}
	}
}

func TestGenerateDiurnalCycle(t *testing.T) {
	p := DFNProfile()
	p.DiurnalAmplitude = 0.8
	p.MeanInterArrivalMillis = 2000
	// ~43k requests over ~1 day.
	reqs, err := Generate(p, Options{Seed: 8, Requests: 43_000})
	if err != nil {
		t.Fatal(err)
	}
	const millisPerDay = int64(24 * 60 * 60 * 1000)
	counts := make([]int, 24)
	for _, r := range reqs {
		h := int(r.UnixMillis % millisPerDay / (60 * 60 * 1000))
		counts[h]++
	}
	// Peak window (13:00–17:00) must far outpace the trough (01:00–05:00).
	peak := counts[13] + counts[14] + counts[15] + counts[16]
	trough := counts[1] + counts[2] + counts[3] + counts[4]
	if trough == 0 || float64(peak)/float64(trough) < 2 {
		t.Errorf("peak/trough ratio %d/%d too flat for amplitude 0.8", peak, trough)
	}
	// Timestamps must remain strictly increasing.
	for i := 1; i < len(reqs); i++ {
		if reqs[i].UnixMillis <= reqs[i-1].UnixMillis {
			t.Fatal("timestamps not increasing under diurnal modulation")
		}
	}
}

func TestGenerateDiurnalValidation(t *testing.T) {
	p := DFNProfile()
	p.DiurnalAmplitude = 1.0
	if err := p.Validate(); err == nil {
		t.Error("amplitude 1.0 accepted")
	}
}

func TestGenerateInvalidProfile(t *testing.T) {
	p := DFNProfile()
	p.Requests = -1
	if _, err := Generate(p, Options{}); err == nil {
		t.Error("invalid profile accepted")
	}
}
