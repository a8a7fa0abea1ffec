package admission

import (
	"strings"
	"testing"

	"webcachesim/internal/policy"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in      string
		name    string
		admits  bool // whether the factory constructs an admitter
		wantErr bool
	}{
		{in: "none", name: "none"},
		{in: "", name: "none"},
		{in: "  None ", name: "none"},
		{in: "tinylfu", name: "tinylfu", admits: true},
		{in: "tinylfu:window=1000", wantErr: true},
		{in: "arc-ghost", name: "arc-ghost", admits: true},
		{in: "arcghost", name: "arc-ghost", admits: true},
		{in: "none:window=3", wantErr: true},
		{in: "tinylfu:window=0", wantErr: true},
		{in: "tinylfu:bogus", wantErr: true},
		{in: "arc-ghost:opt", wantErr: true},
		{in: "lfu", wantErr: true},
		{in: "tinylfu:window=5:window=6", wantErr: true},
	}
	for _, c := range cases {
		f, err := ParseSpec(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q) should fail", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if f.Name != c.name {
			t.Errorf("ParseSpec(%q).Name = %q, want %q", c.in, f.Name, c.name)
		}
		if (f.New != nil) != c.admits {
			t.Errorf("ParseSpec(%q).New present = %v, want %v", c.in, f.New != nil, c.admits)
		}
		if f.New != nil {
			if a := f.New(1 << 20); a == nil {
				t.Errorf("ParseSpec(%q).New returned nil admitter", c.in)
			}
		}
	}
}

// TestParseSpecWindowOption: no scheme takes an option, tinylfu's former
// window= included, and every refusal lists the valid spellings.
func TestParseSpecWindowOption(t *testing.T) {
	for _, in := range []string{"tinylfu:window=1000", "tinylfu:window=4", "none:window=3", "arc-ghost:opt", "lfu", "tinylfu-window"} {
		_, err := ParseSpec(in)
		if err == nil || !strings.Contains(err.Error(), "want none, tinylfu or arc-ghost") {
			t.Errorf("ParseSpec(%q) err = %v, want a refusal listing the valid spellings", in, err)
		}
	}
}

func TestSpecs(t *testing.T) {
	specs := Specs()
	if len(specs) != 3 {
		t.Fatalf("Specs() returned %d factories, want 3", len(specs))
	}
	if specs[0].Name != "none" || specs[0].New != nil {
		t.Errorf("Specs()[0] = %+v, want the identity factory", specs[0])
	}
	for _, f := range specs[1:] {
		if f.New == nil {
			t.Errorf("Specs() factory %q has no constructor", f.Name)
		}
	}
}

func TestAdmissionCountsAdd(t *testing.T) {
	a := policy.AdmissionCounts{Admitted: 2, Rejected: 3, GhostHits: 4}
	a.Add(policy.AdmissionCounts{Admitted: 20, Rejected: 30, GhostHits: 40})
	want := policy.AdmissionCounts{Admitted: 22, Rejected: 33, GhostHits: 44}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}
