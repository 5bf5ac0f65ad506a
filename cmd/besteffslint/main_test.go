package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// fixtureDir is the lint package's fixture module, which contains one
// deliberate violation per analyzer.
const fixtureDir = "../../internal/lint/testdata/src"

func TestRunExitCodes(t *testing.T) {
	if got := run([]string{"-list"}, io.Discard, io.Discard); got != 0 {
		t.Errorf("run(-list) = %d, want 0", got)
	}
	if got := run([]string{"-checks", "nosuchcheck", "./..."}, io.Discard, io.Discard); got != 2 {
		t.Errorf("run(-checks nosuchcheck) = %d, want 2", got)
	}
	if got := run([]string{"-format", "xml", "./..."}, io.Discard, io.Discard); got != 2 {
		t.Errorf("run(-format xml) = %d, want 2", got)
	}
	if got := run([]string{"-C", fixtureDir, "./..."}, io.Discard, io.Discard); got != 1 {
		t.Errorf("run over violation fixtures = %d, want 1", got)
	}
	if got := run([]string{"-C", fixtureDir, "-json", "./..."}, io.Discard, io.Discard); got != 1 {
		t.Errorf("run -json over violation fixtures = %d, want 1", got)
	}
	// A check with no fixture findings in a clean subset exits 0: the
	// importance fixture package violates only codecregistered, so running
	// just uncheckederr over it is clean.
	if got := run([]string{"-C", fixtureDir, "-checks", "uncheckederr", "./internal/importance/"}, io.Discard, io.Discard); got != 0 {
		t.Errorf("run uncheckederr over importance fixture = %d, want 0", got)
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out bytes.Buffer
	if got := run([]string{"-C", fixtureDir, "-format", "json", "-checks", "hotpath", "./internal/hot/", "./internal/hotdep/"}, &out, io.Discard); got != 1 {
		t.Fatalf("run -format json over hotpath fixtures = %d, want 1", got)
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("no findings in JSON output")
	}
	for _, f := range findings {
		if f.Check != "hotpath" || f.File == "" || f.Line == 0 {
			t.Errorf("malformed finding: %+v", f)
		}
	}
}

func TestRunSARIFOutput(t *testing.T) {
	var out bytes.Buffer
	if got := run([]string{"-C", fixtureDir, "-format", "sarif", "-checks", "hotpath,lockorder", "./..."}, &out, io.Discard); got != 1 {
		t.Fatalf("run -format sarif over fixtures = %d, want 1", got)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("output is not SARIF JSON: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version=%q runs=%d, want 2.1.0 and one run", log.Version, len(log.Runs))
	}
	r := log.Runs[0]
	if r.Tool.Driver.Name != "besteffslint" || len(r.Tool.Driver.Rules) != 2 {
		t.Errorf("driver=%q rules=%d, want besteffslint with the 2 selected rules", r.Tool.Driver.Name, len(r.Tool.Driver.Rules))
	}
	if len(r.Results) == 0 {
		t.Fatal("no results in SARIF output")
	}
	sawCycle := false
	for _, res := range r.Results {
		if res.RuleID == "" || len(res.Locations) == 0 ||
			res.Locations[0].PhysicalLocation.ArtifactLocation.URI == "" ||
			res.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Errorf("malformed result: %+v", res)
		}
		if res.RuleID == "lockorder" && strings.Contains(res.Message.Text, "lock-order cycle") {
			sawCycle = true
		}
	}
	if !sawCycle {
		t.Error("no lockorder cycle result in SARIF output")
	}
}
