// Package tracefile records and replays branch traces — the methodology of
// the paper's era, when prediction studies ran from tape-archived address
// traces rather than live execution. A trace file captures the exact branch
// stream one program run produces; replaying it through
// internal/predict.Evaluator reproduces any scheme's accuracy bit for bit,
// without re-executing the program.
//
// Two file encodings exist, dispatched on their 4-byte magic by ReadTrace:
// the fixed-width legacy BCT1 below, which is read-only (kept so old files
// and BCT1 uploads still decode), and the block-structured compressed BCT2
// (see bct2.go), the only encoding written — by Trace.WriteTo, BCT2Writer
// and the on-disk corpus.
//
// BCT1 format (little-endian):
//
//	magic  "BCT1" (4 bytes)
//	count  uint64 — number of events
//	events: each 16 bytes:
//	    pc     int32
//	    id     int32
//	    target int32
//	    op     uint8
//	    flags  uint8 (bit0 taken, bit1 likely)
//	    pad    uint16
//
// Events are read through the provided io.Reader; callers wrap files in
// bufio.
package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"branchcost/internal/isa"
	"branchcost/internal/vm"
)

var magic = [4]byte{'B', 'C', 'T', '1'}

const eventSize = 16

// ErrBadMagic reports a stream that is not a trace file.
var ErrBadMagic = errors.New("tracefile: bad magic")

// Reader replays a BCT1 trace.
type Reader struct {
	r      io.Reader
	buf    [eventSize]byte
	remain uint64
	index  uint64 // events consumed, for error diagnostics
}

// NewReader validates the header.
func NewReader(r io.Reader) (*Reader, error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("tracefile: short header: %w", err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	return newReaderAfterMagic(r)
}

// newReaderAfterMagic reads the count field of a stream whose 4 magic bytes
// are already consumed (the ReadTrace dispatch path).
func newReaderAfterMagic(r io.Reader) (*Reader, error) {
	var cnt [8]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("tracefile: short header: %w", err)
	}
	return &Reader{r: r, remain: binary.LittleEndian.Uint64(cnt[:])}, nil
}

// Remaining returns how many events are left.
func (tr *Reader) Remaining() uint64 { return tr.remain }

// offset returns the stream position of the current event.
func (tr *Reader) offset() uint64 { return 12 + tr.index*eventSize }

// Next returns the next event, or io.EOF when the trace is exhausted. A
// stream that ends before the header's count, or carries an undecodable
// event, yields an error locating the failure by event index and byte
// offset (truncations satisfy errors.Is(err, io.ErrUnexpectedEOF)).
func (tr *Reader) Next() (vm.BranchEvent, error) {
	if tr.remain == 0 {
		return vm.BranchEvent{}, io.EOF
	}
	if _, err := io.ReadFull(tr.r, tr.buf[:]); err != nil {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			err = io.ErrUnexpectedEOF
		}
		return vm.BranchEvent{}, fmt.Errorf(
			"tracefile: bct1 event %d at offset %d (%d events remaining): truncated: %w",
			tr.index, tr.offset(), tr.remain, err)
	}
	b := tr.buf[:]
	ev := vm.BranchEvent{
		PC:     int32(binary.LittleEndian.Uint32(b[0:])),
		ID:     int32(binary.LittleEndian.Uint32(b[4:])),
		Target: int32(binary.LittleEndian.Uint32(b[8:])),
		Op:     isa.Op(b[12]),
		Taken:  b[13]&1 != 0,
		Likely: b[13]&2 != 0,
	}
	if !ev.Op.Valid() || !ev.Op.IsBranch() {
		return vm.BranchEvent{}, fmt.Errorf(
			"tracefile: bct1 event %d at offset %d: corrupt event (op %d)",
			tr.index, tr.offset(), b[12])
	}
	tr.remain--
	tr.index++
	return ev, nil
}

// Replay feeds every remaining event to hook.
func (tr *Reader) Replay(hook vm.BranchFunc) error {
	for {
		ev, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		hook(ev)
	}
}
