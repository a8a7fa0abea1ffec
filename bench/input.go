package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"

	"webcachesim/internal/doctype"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

// patternLen is the size of the block every response body is cut from.
const patternLen = 1 << 20

// pattern is the fixed 1 MiB block of pseudo-random bytes bodies rotate
// through. It does not depend on the run's seed: the seed chooses which
// documents are asked for, not what their bytes are.
var pattern = func() []byte {
	b := make([]byte, patternLen)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range b {
		// xorshift64*: cheap, and never produces long runs that would let
		// a shifted or truncated body pass the head/tail comparison.
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		b[i] = byte((x * 0x2545f4914f6cdd1d) >> 56)
	}
	return b
}()

// doc is one distinct document of a serving workload: what the stub
// origin serves for its path, and what the client checks a response
// against.
type doc struct {
	path  string
	url   string // the generator's URL, kept for the [direct] layer runs
	ctype string
	class doctype.Class
	size  int64
	off   uint32 // body byte i is pattern[(off+i) mod patternLen]
}

// input is one workload's generated request stream. Serving workloads
// replay list against docs; the offline workload consumes reqs; the
// [direct] layer runs use whichever form the layer's functions take.
type input struct {
	seed   int64
	docs   []doc
	list   []int32 // request i asks for docs[list[i]]
	reqs   []*trace.Request
	digest string

	distinctBytes int64
	passBytes     int64 // body bytes one pass over list delivers
}

// digester accumulates the input digest: SHA-256 over every request's
// URL, sizes and content type, in order.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) add(url string, transfer, size int64, ctype string) {
	// hash.Hash.Write never returns an error.
	fmt.Fprintf(d.h, "%s\x00%d\x00%d\x00%s\n", url, transfer, size, ctype)
}

func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// populationSeed is the generator seed every run draws its document
// population from, and blockLen the unit in which the run's own seed
// reorders the generated stream.
//
// A run's --seed does not redraw the population. Document sizes are
// heavy-tailed, and a 40 000-request sample is dominated by the few
// largest documents it happens to contain: across thirty generator seeds
// the bytes one pass delivers ranged from 337 to 608 MiB, the largest
// document from 3.6 to 42 MiB, and serve_churn's byte hit rate by ±15 % —
// wider than any bound a regression gate could use. So the documents,
// their sizes and how often each is asked for are one fixed draw, and the
// seed decides the order: the stream is cut into blocks of blockLen
// requests, which keep the generator's short-range temporal correlation,
// and the seed permutes the blocks. populationSeed 14 is a typical draw
// (390 MiB a pass, 128 MiB distinct) that contains one document above the
// proxy's 8 MiB object limit, asked for four times a pass, so the
// oversize streaming path runs in every serving workload.
const (
	populationSeed = 14
	blockLen       = 256
)

// generate draws n requests of the DFN profile from the fixed population
// and orders them by seed. Timestamps stay ascending: position i keeps
// the i-th timestamp of the generated stream.
func generate(seed int64, n int) ([]*trace.Request, error) {
	reqs, err := synth.Generate(synth.DFNProfile(), synth.Options{Seed: populationSeed, Requests: n})
	if err != nil {
		return nil, fmt.Errorf("generate input: %w", err)
	}
	blocks := (len(reqs) + blockLen - 1) / blockLen
	out := make([]*trace.Request, 0, len(reqs))
	for _, b := range rand.New(rand.NewSource(seed)).Perm(blocks) {
		out = append(out, reqs[b*blockLen:min((b+1)*blockLen, len(reqs))]...)
	}
	millis := make([]int64, len(reqs))
	for i, r := range reqs {
		millis[i] = r.UnixMillis
	}
	for i, r := range out {
		r.UnixMillis = millis[i]
	}
	return out, nil
}

// index fills docs and list from the generator's stream: one doc per
// distinct URL, carrying the size of its first appearance.
func (in *input) index(raw []*trace.Request) {
	in.list = make([]int32, 0, len(raw))
	ids := make(map[string]int32, len(raw)/2)
	for _, r := range raw {
		id, ok := ids[r.URL]
		if !ok {
			path := r.URL
			if i := strings.Index(path, "://"); i >= 0 {
				path = path[i+3:]
				path = path[strings.IndexByte(path, '/'):]
			}
			h := fnv.New32a()
			_, _ = h.Write([]byte(path)) // hash.Hash.Write never fails
			id = int32(len(in.docs))
			ids[r.URL] = id
			in.docs = append(in.docs, doc{
				path: path, url: r.URL, ctype: r.ContentType, class: r.Class,
				size: r.DocSize, off: h.Sum32() % patternLen,
			})
			in.distinctBytes += r.DocSize
		}
		in.list = append(in.list, id)
		in.passBytes += in.docs[id].size
	}
}

// servingInput builds the request list of the serving workloads. A live
// origin has one body per URL, so a document keeps the size of its first
// appearance: the generator's later modifications and interrupted
// transfers belong to the offline pipeline only, and reqs is rewritten to
// the stream the proxy really sees.
func servingInput(seed int64, n int) (*input, error) {
	raw, err := generate(seed, n)
	if err != nil {
		return nil, err
	}
	in := &input{seed: seed, reqs: make([]*trace.Request, 0, len(raw))}
	in.index(raw)
	dg := newDigester()
	for i, r := range raw {
		d := &in.docs[in.list[i]]
		in.reqs = append(in.reqs, &trace.Request{
			UnixMillis: r.UnixMillis, URL: d.url, Status: 200,
			TransferSize: d.size, DocSize: d.size,
			ContentType: d.ctype, Class: d.class, Client: r.Client, Method: "GET",
		})
		dg.add(d.url, d.size, d.size, d.ctype)
	}
	in.digest = dg.sum()
	return in, nil
}

// offlineInput is the generator's stream as it stands — modifications,
// interrupted transfers and all — for the paper's own pipeline. The traced
// run indexes it afterwards, for the [direct] runs of the serving layers.
func offlineInput(seed int64, n int) (*input, error) {
	raw, err := generate(seed, n)
	if err != nil {
		return nil, err
	}
	in := &input{seed: seed, reqs: raw}
	dg := newDigester()
	for _, r := range raw {
		dg.add(r.URL, r.TransferSize, r.DocSize, r.ContentType)
	}
	in.digest = dg.sum()
	return in, nil
}

// wireRequest pre-renders the bytes of a keep-alive GET for path.
func wireRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench.local\r\n\r\n")
}

// contentLength renders a size the way a Content-Length header carries it.
func contentLength(n int64) string { return strconv.FormatInt(n, 10) }
