package cache

import (
	"testing"

	"webcachesim/internal/admission"
	"webcachesim/internal/policy"
	"webcachesim/internal/synth"
)

// replay drives one stream through a fresh store single-threaded, as the
// proxy does: Get, and on a miss (or a changed size) Insert. It returns
// the hit ratio and byte hit ratio of the passes after the first, which
// warms the store.
func replay(t *testing.T, cfg Config, keys []string, sizes []int64) (hr, bhr float64) {
	t.Helper()
	const passes = 3
	c := mustNew(t, cfg)
	var hits, gets, hitBytes, bytes int64
	for pass := 0; pass < passes; pass++ {
		for i, key := range keys {
			e, ok := c.Get(key)
			if ok {
				ok = e.Doc.Size == sizes[i]
				e.Release()
			}
			if pass > 0 {
				gets++
				bytes += sizes[i]
				if ok {
					hits++
					hitBytes += sizes[i]
				}
			}
			if !ok {
				c.Insert(key, &Entry{Doc: &policy.Doc{Key: key, Size: sizes[i]}})
			}
		}
	}
	return float64(hits) / float64(gets), float64(hitBytes) / float64(bytes)
}

// dfnStream is the serving stream the sharded-store tests replay: 30,000
// requests of the DFN profile, their sizes, and a capacity of about 3 %
// of their distinct bytes — the benchmark's serve_churn ratio, where
// every insert evicts.
func dfnStream(t *testing.T) (keys []string, sizes []int64, distinct int, capacity int64) {
	t.Helper()
	reqs, err := synth.Generate(synth.DFNProfile(), synth.Options{Seed: 3, Requests: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	keys = make([]string, len(reqs))
	sizes = make([]int64, len(reqs))
	docs := map[string]int64{}
	for i, r := range reqs {
		keys[i], sizes[i] = r.URL, r.DocSize
		docs[r.URL] = r.DocSize
	}
	var bytes int64
	for _, s := range docs {
		bytes += s
	}
	return keys, sizes, len(docs), bytes * 3 / 100
}

// storeScheme is a replacement policy and an optional admission filter.
type storeScheme struct {
	pol policy.Factory
	adm policy.AdmitterFactory
}

func (s storeScheme) String() string {
	if s.adm.New != nil {
		return s.pol.Name + "+" + s.adm.Name
	}
	return s.pol.Name
}

// storeSchemes are the six study schemes and the benchmark's
// GD*(P)+TinyLFU.
func storeSchemes(t *testing.T) []storeScheme {
	t.Helper()
	tinylfu, err := admission.ParseSpec("tinylfu")
	if err != nil {
		t.Fatal(err)
	}
	var schemes []storeScheme
	for _, f := range policy.StudyFactories() {
		schemes = append(schemes, storeScheme{pol: f})
	}
	return append(schemes, storeScheme{pol: policy.StudyFactories()[5], adm: tinylfu})
}

// TestShardedStoreRanksLikeOneCache: splitting the store into shards must
// not cost the paper's schemes their hit rate. A sharded store chooses its
// victims shard by shard, so it cannot reproduce one cache's order; it has
// to come close. Replayed at about 3 % of the stream's distinct bytes —
// the benchmark's serve_churn ratio, where every insert evicts — each
// scheme's 16-shard hit ratio must reach 0.95 of its 1-shard one. Run
// with -v for the table.
func TestShardedStoreRanksLikeOneCache(t *testing.T) {
	keys, sizes, distinct, capacity := dfnStream(t)
	t.Logf("%d requests, %d distinct documents, capacity %d KiB", len(keys), distinct, capacity>>10)
	t.Logf("%-15s %6s %6s %6s %6s %6s", "scheme", "HR 1", "HR 16", "BHR 1", "BHR 16", "HR 16/1")
	for _, s := range storeSchemes(t) {
		var hr, bhr [2]float64
		for i, shards := range []int{1, 16} {
			hr[i], bhr[i] = replay(t, Config{Capacity: capacity, Shards: shards, Policy: s.pol, Admission: s.adm}, keys, sizes)
		}
		ratio := hr[1] / hr[0]
		t.Logf("%-15s %6.3f %6.3f %6.3f %6.3f %6.2f", s, hr[0], hr[1], bhr[0], bhr[1], ratio)
		if ratio < 0.95 {
			t.Errorf("%s: 16 shards hit %.4f, %.3f of one shard's %.4f; want at least 0.95", s, hr[1], ratio, hr[0])
		}
	}
}
