package policy

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"webcachesim/internal/doctype"
)

// lineupSpecs are the twelve specs of the experiment package's baselines
// lineup: every scheme of the catalogue, the type-aware wrapper included.
var lineupSpecs = []string{
	"lru", "lfuda", "gds:1", "gdstar:1", "gds:p", "gdstar:p",
	"gdsf:p", "slru", "fifo", "size", "lfu", "typeaware+gdstar:1",
}

// specFactory builds the factory of a spec string ParseSpec accepts, its
// policies under Checked (see checkedFactory).
func specFactory(t *testing.T, s string) Factory {
	t.Helper()
	spec, err := ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactory(spec)
	if err != nil {
		t.Fatal(err)
	}
	return checkedFactory(f)
}

// foreignRun fills three policies — two instances of the scheme under test
// and one scheme of the other container family — hits a few documents,
// and returns everything a stray call could disturb: the three Lens, every
// document's reference count, and the three full eviction orders. With
// stray set, the first policy is first shown a Hit and a Remove for a
// document nobody holds, for one the second instance holds and for one the
// other family holds. Every document is of one class: TypeAware's budget
// learning counts each Hit it is shown, by design, so only a single-class
// run has an order the sub-policies alone decide.
func foreignRun(t *testing.T, scheme, other Factory, stray bool) []string {
	t.Helper()
	holders := []Policy{scheme.New(), scheme.New(), other.New()}
	var docs []*Doc
	for i := 0; i < 60; i++ {
		d := &Doc{Key: fmt.Sprintf("d%d", i), ID: int32(i), Size: int64(100 + 37*i%4000), Class: doctype.Image}
		docs = append(docs, d)
		holders[i%3].Insert(d)
	}
	for i := 0; i < 60; i += 2 {
		holders[i%3].Hit(docs[i])
	}
	docs = append(docs, &Doc{Key: "nobody", ID: 60, Size: 500, Class: doctype.Image})
	if stray {
		// Checked refuses a Hit for a document it does not track, so the
		// stray Hit goes to the scheme itself; Remove goes through Checked,
		// which then asserts that Len did not move.
		inner := holders[0].(*checked).Unwrap()
		for _, d := range []*Doc{docs[60], docs[31], docs[32]} {
			inner.Hit(d)
			holders[0].Remove(d)
		}
	}
	var out []string
	for _, d := range docs {
		out = append(out, fmt.Sprintf("%s refs=%d", d.Key, d.hm.refs))
	}
	for i, p := range holders {
		out = append(out, fmt.Sprintf("holder %d Len=%d", i, p.Len()))
		for {
			v, ok := p.Evict()
			if !ok {
				break
			}
			out = append(out, fmt.Sprintf("holder %d evicts %s", i, v.Key))
		}
	}
	return out
}

// TestStrayHitAndRemoveAreNoOps pins the contract Doc.meta used to carry:
// a Hit or Remove for a document the policy does not hold — never
// inserted, held by another instance of the same scheme, or held by a
// scheme of the other container family — changes nothing anywhere.
func TestStrayHitAndRemoveAreNoOps(t *testing.T) {
	for _, s := range lineupSpecs {
		t.Run(s, func(t *testing.T) {
			other := "lru" // the list family, for the heap-based schemes
			if s == "lru" || s == "fifo" || s == "slru" {
				other = "gds:p"
			}
			scheme, otherFamily := specFactory(t, s), specFactory(t, other)
			want := foreignRun(t, scheme, otherFamily, false)
			got := foreignRun(t, scheme, otherFamily, true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stray Hit/Remove changed state:\ngot  %q\nwant %q", got, want)
			}
		})
	}
}

// TestDocLayout pins what the Doc comment claims: the size of a Doc, and
// that everything a value-based scheme touches on a hit — the heap handle
// and the reference count — ends inside its first 64 bytes.
func TestDocLayout(t *testing.T) {
	var d Doc
	if got := unsafe.Sizeof(d); got != 96 {
		t.Errorf("Sizeof(Doc) = %d, want 96", got)
	}
	if end := unsafe.Offsetof(d.hm) + unsafe.Sizeof(d.hm); end > 64 {
		t.Errorf("Doc.hm (heap handle + reference count) ends at byte %d, want <= 64", end)
	}
}
