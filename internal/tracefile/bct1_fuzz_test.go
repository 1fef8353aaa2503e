package tracefile_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
)

// bct1Seed frames a payload of raw 16-byte event records under a BCT1
// header claiming count events — the count and the payload deliberately
// need not agree, so seeds can probe the truncation path.
func bct1Seed(count uint64, events []byte) []byte {
	s := append([]byte("BCT1"), binary.LittleEndian.AppendUint64(nil, count)...)
	return append(s, events...)
}

// bct1Encode frames a recorded trace as a BCT1 stream. The package writes
// only BCT2, so the legacy layout the decoder still reads is built here.
func bct1Encode(tr *tracefile.Trace) []byte {
	var events []byte
	le := binary.LittleEndian
	tr.Replay(func(ev vm.BranchEvent) {
		events = le.AppendUint32(events, uint32(ev.PC))
		events = le.AppendUint32(events, uint32(ev.ID))
		events = le.AppendUint32(events, uint32(ev.Target))
		var flags byte
		if ev.Taken {
			flags |= 1
		}
		if ev.Likely {
			flags |= 2
		}
		events = append(events, byte(ev.Op), flags, 0, 0)
	})
	return bct1Seed(uint64(tr.Len()), events)
}

// FuzzBCT1Decode is the legacy-format twin of FuzzBCT2Decode: whatever the
// bytes, the fixed-width decoder must terminate without panicking, and any
// failure after a valid header must be a located error (event index + byte
// offset) — never a bare io.EOF misread as a clean end, never a silent
// truncation.
func FuzzBCT1Decode(f *testing.F) {
	tr, err := tracefile.Record(mustProgram(f), [][]byte{nil})
	if err != nil {
		f.Fatal(err)
	}
	enc := bct1Encode(tr)
	f.Add(enc)
	f.Add(enc[:len(enc)/2]) // stream cut mid-event: count says more
	f.Add(enc[:12])         // bare header, zero events delivered
	f.Add([]byte{})
	f.Add([]byte("BCT1"))
	// Adversarial seeds promoted from the decoder's validation table: each
	// one lands mutation directly inside a distinct rejection path.
	flipped := bytes.Clone(enc)
	flipped[len(flipped)/2] ^= 0xff // likely corrupts an op or flag byte
	f.Add(flipped)
	badOp := bytes.Clone(enc)
	badOp[12+12] = 0xee // first event's op byte: not a valid isa.Op
	f.Add(badOp)
	notBranch := bytes.Clone(enc)
	notBranch[12+12] = 0x01 // a valid op that is not a branch
	f.Add(notBranch)
	f.Add(bct1Seed(1<<40, nil))                  // count overflows the stream entirely
	f.Add(bct1Seed(2, enc[12:12+16]))            // count 2, one event present
	f.Add(bct1Seed(0, enc[12:12+16]))            // count 0, trailing bytes ignored
	f.Add(bct1Seed(1, make([]byte, 16)))         // all-zero event (op 0)
	f.Add(bct1Seed(1, append(enc[12:12+15], 3))) // nonzero pad byte
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := tracefile.NewReader(bytes.NewReader(data))
		if err != nil {
			return // header rejected: fine, as long as we got here without panic
		}
		err = r.Replay(func(vm.BranchEvent) {})
		if err != nil && !strings.Contains(err.Error(), "offset") {
			t.Fatalf("decode error lacks location: %v", err)
		}
		if err == nil && r.Remaining() != 0 {
			t.Fatalf("clean end with %d events still owed", r.Remaining())
		}
	})
}
