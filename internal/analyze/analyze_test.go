package analyze_test

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"webcachesim/internal/analyze"
	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

// workload builds the simulator workload of a request stream.
func workload(t testing.TB, reqs []*trace.Request) *core.Workload {
	t.Helper()
	w, err := core.BuildWorkload(trace.NewSliceReader(reqs), 0)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func characterize(t testing.TB, reqs []*trace.Request, name string) *analyze.Characterization {
	t.Helper()
	return analyze.Characterize(workload(t, reqs), name)
}

func TestCharacterizeSmallHandmadeTrace(t *testing.T) {
	reqs := []*trace.Request{
		{URL: "http://e.com/a.gif", Status: 200, TransferSize: 1024, DocSize: 1024, UnixMillis: 1000},
		{URL: "http://e.com/a.gif", Status: 200, TransferSize: 1024, DocSize: 1024, UnixMillis: 2000},
		{URL: "http://e.com/b.html", Status: 200, TransferSize: 2048, DocSize: 2048, UnixMillis: 3000},
		{URL: "http://e.com/c.mp3", Status: 200, TransferSize: 512, DocSize: 4096, UnixMillis: 4000},
	}
	c := characterize(t, reqs, "hand")
	if c.Requests != 4 || c.DistinctDocs != 3 {
		t.Fatalf("requests/docs = %d/%d, want 4/3", c.Requests, c.DistinctDocs)
	}
	if c.ReqBytes != 1024+1024+2048+512 {
		t.Errorf("ReqBytes = %d", c.ReqBytes)
	}
	// Distinct bytes use the full doc size (c.mp3 counts 4096, not 512).
	if c.DistinctBytes != 1024+2048+4096 {
		t.Errorf("DistinctBytes = %d", c.DistinctBytes)
	}
	img := c.Classes[doctype.Image]
	if img.Requests != 2 || img.DistinctDocs != 1 {
		t.Errorf("image summary %+v", img)
	}
	if got := c.PctRequests(doctype.Image); got != 50 {
		t.Errorf("image request share %v%%, want 50", got)
	}
	if got := c.PctDistinctDocs(doctype.HTML); math.Abs(got-100.0/3) > 1e-9 {
		t.Errorf("html distinct share %v%%, want 33.3", got)
	}
	if c.StartMillis != 1000 || c.EndMillis != 4000 {
		t.Errorf("period %d-%d", c.StartMillis, c.EndMillis)
	}
	if img.MeanDocKB != 1 || img.MedianDocKB != 1 {
		t.Errorf("image doc size stats %v/%v KB, want 1/1", img.MeanDocKB, img.MedianDocKB)
	}
	mm := c.Classes[doctype.MultiMedia]
	if mm.MeanTransferKB != 0.5 {
		t.Errorf("multimedia mean transfer %v KB, want 0.5", mm.MeanTransferKB)
	}
	if mm.MeanDocKB != 4 {
		t.Errorf("multimedia mean doc %v KB, want 4", mm.MeanDocKB)
	}
	// Tiny trace: locality estimators must report "not enough data"
	// rather than fabricate indices.
	if img.AlphaOK || img.BetaOK {
		t.Error("alpha/beta claimed OK on a 4-request trace")
	}

	// The attribution the characterization shares with the simulator: a
	// document keeps the class of its first request, and a zero-byte
	// document is charged one byte. Both rows are one image document
	// requested twice.
	for _, tc := range []struct {
		name     string
		reqs     []*trace.Request
		docBytes int64
	}{
		{
			name: "content type changes between requests",
			reqs: []*trace.Request{
				{URL: "http://e.com/x", ContentType: "image/gif", Status: 200, TransferSize: 100, DocSize: 100},
				{URL: "http://e.com/x", ContentType: "text/html", Status: 200, TransferSize: 100, DocSize: 100},
			},
			docBytes: 100,
		},
		{
			name: "every request carries zero bytes",
			reqs: []*trace.Request{
				{URL: "http://e.com/empty.gif", Status: 200},
				{URL: "http://e.com/empty.gif", Status: 200},
			},
			docBytes: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := characterize(t, tc.reqs, "hand")
			if img := c.Classes[doctype.Image]; img.Requests != 2 || img.DistinctDocs != 1 {
				t.Errorf("image requests/docs = %d/%d, want 2/1", img.Requests, img.DistinctDocs)
			}
			if html := c.Classes[doctype.HTML]; html.Requests != 0 || html.DistinctDocs != 0 {
				t.Errorf("html requests/docs = %d/%d, want none", html.Requests, html.DistinctDocs)
			}
			if c.DistinctBytes != tc.docBytes {
				t.Errorf("DistinctBytes = %d, want %d", c.DistinctBytes, tc.docBytes)
			}
		})
	}
}

// TestCharacterizeDeterministic characterizes one workload twice: every
// field, floating-point sums included, must come out identical.
func TestCharacterizeDeterministic(t *testing.T) {
	reqs, err := synth.Generate(synth.DFNProfile(), synth.Options{Seed: 1, Requests: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	w := workload(t, reqs)
	a, b := analyze.Characterize(w, "DFN"), analyze.Characterize(w, "DFN")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two characterizations of one workload differ:\n%+v\n%+v", a, b)
	}
}

// TestBetaPowerLawStream builds a stream where inter-reference distances
// follow n^-β for documents of equal popularity, by sampling distances from
// the discrete power law and splicing references into a timeline; the
// characterization must recover β.
func TestBetaPowerLawStream(t *testing.T) {
	const beta = 0.8
	rng := rand.New(rand.NewSource(7))
	// Sample distances via inverse transform on a truncated power law.
	sample := func() int64 {
		// P(n) ∝ n^-β on [1, 4096]: inverse CDF of the continuous analog.
		u := rng.Float64()
		max := 4096.0
		oneMinus := 1 - beta
		x := math.Pow(u*(math.Pow(max, oneMinus)-1)+1, 1/oneMinus)
		return int64(x)
	}
	// 400 documents, 10 references each at power-law spaced positions.
	type ref struct {
		at  int64
		doc string
	}
	var refs []ref
	for d := 0; d < 400; d++ {
		doc := "http://e.com/doc" + strconv.Itoa(d) + ".gif"
		pos := int64(rng.Intn(1000))
		for k := 0; k < 10; k++ {
			refs = append(refs, ref{at: pos, doc: doc})
			pos += sample()
		}
	}
	// Sort by virtual time (stably, as the references were made) and lay
	// them out as a request stream: filler singleton requests make stream
	// distance match virtual time.
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && refs[j].at < refs[j-1].at; j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
	var reqs []*trace.Request
	var clock int64
	for _, r := range refs {
		for ; clock < r.at; clock++ {
			reqs = append(reqs, &trace.Request{URL: "http://e.com/filler-" + strconv.Itoa(len(reqs)) + ".gif", TransferSize: 1})
		}
		reqs = append(reqs, &trace.Request{URL: r.doc, TransferSize: 1})
		clock++
	}
	c := characterize(t, reqs, "power-law")
	img := c.Classes[doctype.Image]
	if !img.BetaOK {
		t.Fatal("β not measurable")
	}
	if got := img.Beta; got < 0.5 || got > 1.1 {
		t.Errorf("beta = %v, want near %v", got, beta)
	}
	if c.Requests == 0 {
		t.Error("no requests characterized")
	}
}

func TestBetaInsufficient(t *testing.T) {
	if c := characterize(t, nil, "empty"); c.Classes[doctype.Image].BetaOK {
		t.Error("empty workload should have no β")
	}
	a := &trace.Request{URL: "http://e.com/a.gif", TransferSize: 1}
	if c := characterize(t, []*trace.Request{a, a}, "two"); c.Classes[doctype.Image].BetaOK {
		t.Error("too few distances should have no β")
	}
}

func TestCharacterizeEmptyTrace(t *testing.T) {
	c := characterize(t, nil, "empty")
	if c.Requests != 0 || c.DistinctDocs != 0 {
		t.Error("empty trace produced counts")
	}
	if got := c.PctRequests(doctype.Image); got != 0 {
		t.Errorf("empty trace share %v, want 0", got)
	}
}

// TestSynthCalibrationDFN is the calibration gate: the synthetic DFN
// workload, pushed through the same estimators the paper uses, must
// reproduce the qualitative structure of Tables 2 and 4 that the paper's
// conclusions rest on.
func TestSynthCalibrationDFN(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is slow")
	}
	p := synth.DFNProfile()
	reqs, err := synth.Generate(p, synth.Options{Seed: 11, Requests: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	c := characterize(t, reqs, "DFN-synth")

	// Table 2 structure: HTML+images ≈ 95% of requests and docs.
	reqHTMLImg := c.PctRequests(doctype.HTML) + c.PctRequests(doctype.Image)
	if reqHTMLImg < 90 {
		t.Errorf("HTML+image request share %v%%, want ≈95", reqHTMLImg)
	}
	docHTMLImg := c.PctDistinctDocs(doctype.HTML) + c.PctDistinctDocs(doctype.Image)
	if docHTMLImg < 90 {
		t.Errorf("HTML+image distinct share %v%%, want ≈95", docHTMLImg)
	}
	// Multi media + application: ≈5% of requests but a large share of the
	// bytes (paper: >40%).
	mmAppReq := c.PctRequests(doctype.MultiMedia) + c.PctRequests(doctype.Application)
	if mmAppReq > 10 {
		t.Errorf("mm+app request share %v%%, want ≈5", mmAppReq)
	}
	mmAppBytes := c.PctReqBytes(doctype.MultiMedia) + c.PctReqBytes(doctype.Application)
	if mmAppBytes < 25 {
		t.Errorf("mm+app requested-data share %v%%, want large (paper >40)", mmAppBytes)
	}

	// Table 4 structure: multi media has the largest transfer sizes;
	// application has large mean but small median.
	mm, app, img, html := c.Classes[doctype.MultiMedia], c.Classes[doctype.Application],
		c.Classes[doctype.Image], c.Classes[doctype.HTML]
	if mm.MeanTransferKB <= app.MeanTransferKB || app.MeanTransferKB <= html.MeanTransferKB {
		t.Errorf("mean transfer ordering broken: mm=%v app=%v html=%v",
			mm.MeanTransferKB, app.MeanTransferKB, html.MeanTransferKB)
	}
	if app.MedianDocKB >= app.MeanDocKB/2 {
		t.Errorf("application median %v should be far below mean %v",
			app.MedianDocKB, app.MeanDocKB)
	}

	// Locality: α largest for images; β larger for multi media than
	// images (the inverse trend of Section 2).
	if !img.AlphaOK || !html.AlphaOK {
		t.Fatal("alpha not measurable for images/HTML")
	}
	if img.Alpha <= html.Alpha-0.05 {
		t.Errorf("alpha(images)=%v should exceed alpha(html)=%v", img.Alpha, html.Alpha)
	}
	if img.BetaOK && html.BetaOK && html.Beta <= img.Beta-0.1 {
		t.Errorf("beta(html)=%v should exceed beta(images)=%v", html.Beta, img.Beta)
	}
}

// TestSynthCalibrationRTPDiffers checks the workload contrasts §4.4
// builds on: RTP has more multi-media activity and a larger HTML request
// share than DFN, with flatter popularity.
func TestSynthCalibrationRTPDiffers(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is slow")
	}
	gen := func(p *synth.Profile) *analyze.Characterization {
		reqs, err := synth.Generate(p, synth.Options{Seed: 12, Requests: 120_000})
		if err != nil {
			t.Fatal(err)
		}
		return characterize(t, reqs, p.Name)
	}
	dfn := gen(synth.DFNProfile())
	rtp := gen(synth.RTPProfile())

	if rtp.PctRequests(doctype.MultiMedia) <= dfn.PctRequests(doctype.MultiMedia) {
		t.Errorf("RTP multi-media request share %v%% should exceed DFN %v%%",
			rtp.PctRequests(doctype.MultiMedia), dfn.PctRequests(doctype.MultiMedia))
	}
	if rtp.PctDistinctDocs(doctype.MultiMedia) <= dfn.PctDistinctDocs(doctype.MultiMedia) {
		t.Errorf("RTP multi-media distinct share %v%% should exceed DFN %v%%",
			rtp.PctDistinctDocs(doctype.MultiMedia), dfn.PctDistinctDocs(doctype.MultiMedia))
	}
	if rtp.PctRequests(doctype.HTML) <= dfn.PctRequests(doctype.HTML)+10 {
		t.Errorf("RTP HTML request share %v%% should far exceed DFN %v%%",
			rtp.PctRequests(doctype.HTML), dfn.PctRequests(doctype.HTML))
	}
	// Flatter popularity on RTP for images.
	dImg, rImg := dfn.Classes[doctype.Image], rtp.Classes[doctype.Image]
	if dImg.AlphaOK && rImg.AlphaOK && rImg.Alpha >= dImg.Alpha+0.05 {
		t.Errorf("RTP image alpha %v should be below DFN %v", rImg.Alpha, dImg.Alpha)
	}
}
