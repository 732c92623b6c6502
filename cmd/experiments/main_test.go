package main

import (
	"context"
	"strings"
	"testing"

	"quetzal/internal/engine"
	"quetzal/internal/experiments"
	"quetzal/internal/runner"
)

func tinySetup() experiments.Setup {
	s := experiments.DefaultSetup()
	s.NumEvents = 25
	return s
}

// Every figure id the CLI advertises must resolve and produce at least one
// table with rows.
func TestRunAllFigureIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	sw := experiments.NewSweep(tinySetup())
	ctx := context.Background()
	for _, id := range figOrder {
		tables, err := runFig(ctx, sw, id)
		if err != nil {
			t.Fatalf("fig %s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("fig %s: no tables", id)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Errorf("fig %s: table %q has no rows", id, tb.Title)
			}
		}
	}
	if l := sw.Ledger(); l.CacheHits == 0 {
		t.Errorf("full figure set produced no cache hits: %v", l)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := runFig(context.Background(), experiments.NewSweep(tinySetup()), "nope"); err == nil {
		t.Error("runFig accepted unknown figure id")
	}
}

func TestParseFigs(t *testing.T) {
	// "all" expands to the full ordered set.
	ids, err := parseFigs("all")
	if err != nil {
		t.Fatalf("parseFigs(all): %v", err)
	}
	if len(ids) != len(figOrder) {
		t.Errorf("all → %d ids, want %d", len(ids), len(figOrder))
	}

	// Duplicates and whitespace are cleaned up; order is preserved.
	ids, err = parseFigs(" 9 ,3,9, 3 ")
	if err != nil {
		t.Fatalf("parseFigs: %v", err)
	}
	if len(ids) != 2 || ids[0] != "9" || ids[1] != "3" {
		t.Errorf("parseFigs dedupe = %v, want [9 3]", ids)
	}

	// Unknown ids fail fast with the full valid list, naming every typo.
	_, err = parseFigs("3,bogus,9,nope")
	if err == nil {
		t.Fatal("parseFigs accepted unknown ids")
	}
	for _, frag := range []string{`"bogus"`, `"nope"`, "valid ids", "11c", "checkpoint"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("parseFigs error %q missing %q", err, frag)
		}
	}

	// Empty input is an error, not an empty sweep.
	if _, err := parseFigs(" , "); err == nil {
		t.Error("parseFigs accepted an empty id list")
	}
}

// TestParseEngine: -engine names go through the wire parser, and -fast
// conflicts only with an explicit -engine fixed.
func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		arg     string
		fast    bool
		want    engine.Kind
		wantErr string
	}{
		{arg: "", want: engine.FixedIncrement},
		{arg: "", fast: true, want: engine.EventDriven},
		{arg: "fixed", want: engine.FixedIncrement},
		{arg: "event", want: engine.EventDriven},
		{arg: "event", fast: true, want: engine.EventDriven},
		{arg: "lockstep", want: engine.Lockstep},
		{arg: "bogus", wantErr: `unknown engine "bogus"`},
		{arg: "fixed", fast: true, wantErr: "-fast conflicts with -engine fixed"},
	} {
		got, err := parseEngine(tc.arg, tc.fast)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseEngine(%q, %v) error = %v, want %q", tc.arg, tc.fast, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseEngine(%q, %v) = %v, %v; want %v", tc.arg, tc.fast, got, err, tc.want)
		}
	}
}

// TestCLIDeterminism: a representative figure subset must render
// byte-identically at -parallel 1 and -parallel 8 (the correctness bar for
// the concurrent sweep). The deeper check lives in internal/experiments;
// this one goes through the CLI's own runFig path.
func TestCLIDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("renders several figures twice")
	}
	render := func(workers int) string {
		s := tinySetup()
		s.Engine = engine.EventDriven
		sw := experiments.NewSweepConfig(s, runner.Config[experiments.RunKey]{Workers: workers})
		var b strings.Builder
		for _, id := range []string{"3", "9", "11c"} {
			tables, err := runFig(context.Background(), sw, id)
			if err != nil {
				t.Fatalf("workers=%d fig %s: %v", workers, id, err)
			}
			for _, tb := range tables {
				if err := tb.Render(&b); err != nil {
					t.Fatal(err)
				}
			}
		}
		return b.String()
	}
	serial, parallel := render(1), render(8)
	if serial != parallel {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}
