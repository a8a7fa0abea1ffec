package units

import (
	"slices"
	"testing"
)

func TestParseBytes(t *testing.T) {
	tests := []struct {
		in      string
		want    int64
		wantErr bool
	}{
		{"1024", 1024, false},
		{"64MB", 64 << 20, false},
		{"64mb", 64 << 20, false},
		{"64MiB", 64 << 20, false},
		{"1GB", 1 << 30, false},
		{"1.5GB", 3 << 29, false},
		{"512KB", 512 << 10, false},
		{"512k", 512 << 10, false},
		{"2g", 2 << 30, false},
		{"100B", 100, false},
		{" 8 MB ", 8 << 20, false},
		{"0", 0, true},
		{"-5MB", 0, true},
		{"abc", 0, true},
		{"", 0, true},
		{"0.5", 0, true},
		{"inf", 0, true},
		{"-inf", 0, true},
		{"nan", 0, true},
		{"1e30GB", 0, true},
		{"8GB", 8 << 30, false},
		{"9223372036854775807", 0, true},                    // rounds to 2^63 as a float64
		{"9223372036854774784", 9223372036854774784, false}, // the largest float64 below 2^63
	}
	for _, tt := range tests {
		got, err := ParseBytes(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseBytes(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestParsePercents(t *testing.T) {
	got, err := ParsePercents(" 4, 0.5,1 ,4")
	if err != nil || !slices.Equal(got, []float64{4, 0.5, 1, 4}) {
		t.Errorf("ParsePercents = %v, %v; want [4 0.5 1 4] in the order given", got, err)
	}
	for _, in := range []string{"", "a,b", "1,", "nan", "NaN,1", "-2", "1,0", "inf", "1,+Inf"} {
		if got, err := ParsePercents(in); err == nil {
			t.Errorf("ParsePercents(%q) = %v, want an error", in, got)
		}
	}
}
