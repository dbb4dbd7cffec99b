package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

// The artifacts golden pins the rendered stdout of every closed-form and
// seeded paper artifact byte for byte, so a refactor of the experiment
// generators or of the evaluator beneath them shows up as a diff here.
// Regenerate deliberately with
//
//	go test ./cmd/paperrepro -run TestArtifactsGolden -update
//
// after a change that is supposed to move the output, and review the
// testdata/artifacts.golden diff like any other code change.
var updateGolden = flag.Bool("update", false, "regenerate testdata/artifacts.golden from the current build")

const artifactsGoldenPath = "testdata/artifacts.golden"

// goldenScenarios are the pinned scenarios: every paper table and
// figure except Figure 5's long series, the ablations, the Monte-Carlo
// cross-check at the default seed, and the sweeps that finish in well
// under a second.
const goldenScenarios = "fig1,fig2,fig3,table1,table2,fig4,ablk,ablnu,mc,nusweep,stress9,large,apt"

func TestArtifactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every pinned scenario; skipped under -short")
	}
	var out bytes.Buffer
	if err := run([]string{"-only", goldenScenarios}, &out); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifactsGoldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", out.Len(), artifactsGoldenPath)
		return
	}
	want, err := os.ReadFile(artifactsGoldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("stdout differs from %s from line %d on; got %d bytes, want %d",
			artifactsGoldenPath, bytes.Count(want[:i], []byte("\n"))+1, len(got), len(want))
	}
}
