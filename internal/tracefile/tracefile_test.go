package tracefile_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"branchcost/internal/btb"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
)

// tempTrace records the given benchmark's run-0 branch stream to a BCT1
// file and returns the path plus the live-measured events.
func tempTrace(t *testing.T, name string) (string, []vm.BranchEvent) {
	t.Helper()
	tr, live := liveEvents(t, name)
	path := filepath.Join(t.TempDir(), name+".bt")
	if err := os.WriteFile(path, bct1Encode(tr), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, live
}

func TestRoundTrip(t *testing.T) {
	path, live := tempTrace(t, "wc")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := tracefile.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Remaining() != uint64(len(live)) {
		t.Fatalf("count %d != %d", tr.Remaining(), len(live))
	}
	for i, want := range live {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := tr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestReplayReproducesAccuracy: evaluating a predictor from the trace must
// give bit-identical statistics to live evaluation.
func TestReplayReproducesAccuracy(t *testing.T) {
	path, live := tempTrace(t, "grep")

	liveEval := &predict.Evaluator{P: btb.NewCBTB(256, 256, 2, 2)}
	for _, ev := range live {
		liveEval.Observe(ev)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := tracefile.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	replayEval := &predict.Evaluator{P: btb.NewCBTB(256, 256, 2, 2)}
	if err := tr.Replay(replayEval.Hook()); err != nil {
		t.Fatal(err)
	}
	if liveEval.S != replayEval.S {
		t.Fatalf("replay stats differ:\nlive   %+v\nreplay %+v", liveEval.S, replayEval.S)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := tracefile.NewReader(bytes.NewReader([]byte("NOPE00000000"))); !errors.Is(err, tracefile.ErrBadMagic) {
		t.Fatalf("got %v", err)
	}
}

func TestTruncatedTrace(t *testing.T) {
	path, _ := tempTrace(t, "wc")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.NewReader(bytes.NewReader(data[:len(data)-5]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := tr.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				t.Fatal("truncation not detected")
			}
			return // got the truncation error
		}
	}
}

func TestCorruptOpcode(t *testing.T) {
	path, _ := tempTrace(t, "wc")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[12+12] = 200 // first event's op byte
	tr, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Next(); err == nil {
		t.Fatal("corrupt opcode accepted")
	}
}

func TestCallsNotRecorded(t *testing.T) {
	path, live := tempTrace(t, "tar")
	for _, ev := range live {
		if !ev.Op.IsBranch() {
			t.Fatal("non-branch in live set (test bug)")
		}
	}
	f, _ := os.Open(path)
	defer f.Close()
	tr, err := tracefile.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = tr.Replay(func(ev vm.BranchEvent) {
		if !ev.Op.IsBranch() {
			t.Fatal("non-branch event in trace")
		}
		n++
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(live) {
		t.Fatalf("replayed %d events, want %d", n, len(live))
	}
}
