package importance

import (
	"math"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	tests := []struct {
		name    string
		spec    string
		age     time.Duration
		want    float64
		wantErr bool
	}{
		{name: "two step plateau", spec: "twostep:p=1,persist=15d,wane=15d", age: 10 * Day, want: 1},
		{name: "two step mid wane", spec: "twostep:p=1,persist=15d,wane=15d", age: 22*Day + 12*time.Hour, want: 0.5},
		{name: "two step go durations", spec: "twostep:p=0.5,persist=360h,wane=336h", age: 0, want: 0.5},
		{name: "constant", spec: "constant:p=0.75", age: 400 * Day, want: 0.75},
		{name: "constant default level", spec: "constant", age: 0, want: 1},
		{name: "dirac", spec: "dirac", age: 0, want: 0},
		{name: "linear", spec: "linear:p=1,expire=10d", age: 5 * Day, want: 0.5},
		{name: "exponential", spec: "exp:p=1,halflife=10d,expire=100d", age: 10 * Day, want: 0.5},
		{name: "piecewise", spec: "piecewise:0s=1,10d=1,20d=0", age: 15 * Day, want: 0.5},
		{name: "fractional days", spec: "linear:p=1,expire=2.5d", age: 30 * time.Hour, want: 0.5},
		{name: "case insensitive family", spec: "TwoStep:p=1,persist=1d,wane=1d", age: 0, want: 1},
		{name: "unknown family", spec: "cliff:p=1", wantErr: true},
		{name: "unknown key", spec: "twostep:q=1", wantErr: true},
		{name: "bad level", spec: "constant:p=seven", wantErr: true},
		{name: "bad duration", spec: "twostep:persist=fortnight", wantErr: true},
		{name: "level out of range", spec: "constant:p=3", wantErr: true},
		{name: "dirac with params", spec: "dirac:p=1", wantErr: true},
		{name: "piecewise empty", spec: "piecewise:", wantErr: true},
		{name: "piecewise missing equals", spec: "piecewise:10d", wantErr: true},
		{name: "missing equals", spec: "twostep:persist", wantErr: true},
		{name: "key of another family", spec: "constant:p=0.5,expire=3d", wantErr: true},
		{name: "exp key on linear", spec: "linear:p=1,halflife=3d", wantErr: true},
		{name: "linear key on two step", spec: "twostep:p=1,persist=1d,wane=1d,expire=3d", wantErr: true},
		{name: "level given twice", spec: "constant:p=0.5,p=0.7", wantErr: true},
		{name: "duration given twice", spec: "twostep:p=1,persist=1d,persist=2d", wantErr: true},
		{name: "dropped level spelling", spec: "constant:level=0.5", wantErr: true},
		{name: "dropped start spelling", spec: "linear:start=1,expire=10d", wantErr: true},
		{name: "dropped exponential family name", spec: "exponential:p=1,halflife=10d,expire=100d", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f, err := ParseSpec(tt.spec)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("ParseSpec(%q) succeeded, want error", tt.spec)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", tt.spec, err)
			}
			if got := f.At(tt.age); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("At(%v) = %v, want %v", tt.age, got, tt.want)
			}
		})
	}
}

func TestParseDuration(t *testing.T) {
	tests := []struct {
		in      string
		want    time.Duration
		wantErr bool
	}{
		{in: "30d", want: 30 * Day},
		{in: "0.5d", want: 12 * time.Hour},
		{in: "36h", want: 36 * time.Hour},
		{in: "15m", want: 15 * time.Minute},
		{in: "xd", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseDuration(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseDuration(%q) succeeded, want error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestFormatDays(t *testing.T) {
	if got := FormatDays(30 * Day); got != "30d" {
		t.Errorf("FormatDays(30d) = %q", got)
	}
	if got := FormatDays(12 * time.Hour); got != "0.5d" {
		t.Errorf("FormatDays(12h) = %q", got)
	}
}

func TestMustParseSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseSpec of a bad spec should panic")
		}
	}()
	MustParseSpec("nope")
}
