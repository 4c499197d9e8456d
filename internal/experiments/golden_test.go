package experiments

import (
	"bytes"
	"io"
	"os"
	"testing"

	"flecc/internal/metrics"
)

// TestFigureRowsGolden pins every deterministic figure and ablation row:
// it runs the eight experiments at the defaults cmd/fleccbench uses and
// byte-compares the tables against testdata/figures.golden. A row that
// moves fails tier-1. After an intended change, regenerate from the repo
// root with
//
//	for e in fig4 fig5 fig6 ablation-conflict ablation-rw ablation-peer ablation-propagation buyermix; do
//		go run ./cmd/fleccbench -exp $e -check=false
//	done > internal/experiments/testdata/figures.golden
//
// and review the diff.
func TestFigureRowsGolden(t *testing.T) {
	// The ablations print their Table(); the figures print themselves.
	table := func(r interface{ Table() *metrics.Table }, err error) (io.WriterTo, error) {
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}
	var got bytes.Buffer
	for _, exp := range []struct {
		name string
		run  func() (io.WriterTo, error)
	}{
		{"fig4", func() (io.WriterTo, error) { return RunFig4(DefaultFig4()) }},
		{"fig5", func() (io.WriterTo, error) { return RunFig5(DefaultFig5()) }},
		{"fig6", func() (io.WriterTo, error) { return RunFig6(DefaultFig6()) }},
		{"ablation-conflict", func() (io.WriterTo, error) { return table(RunAblationConflict(40, 10, 1)) }},
		{"ablation-rw", func() (io.WriterTo, error) { return table(RunAblationRW(10, 5)) }},
		{"ablation-peer", func() (io.WriterTo, error) { return table(RunAblationPeer([]int{2, 4, 8, 16, 32})) }},
		{"ablation-propagation", func() (io.WriterTo, error) { return table(RunPropagation(DefaultPropagation())) }},
		{"buyermix", func() (io.WriterTo, error) { return table(RunBuyerMix(DefaultBuyerMix())) }},
	} {
		res, err := exp.run()
		if err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
		if _, err := res.WriteTo(&got); err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
	}
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	// Name the first line that moved; a line one side lacks prints as [].
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	i := 0
	for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
		i++
	}
	t.Fatalf("figure rows moved; first difference at testdata/figures.golden:%d\n got: %q\nwant: %q",
		i+1, gl[min(i, len(gl)):min(i+1, len(gl))], wl[min(i, len(wl)):min(i+1, len(wl))])
}
