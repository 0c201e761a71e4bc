// Package graphio serializes training state to a compact binary
// format: a model's flat parameter vector (WriteParams/ReadParams,
// behind trainer -checkpoint/-resume) and the resumable checkpoint
// (WriteCheckpoint/ReadCheckpoint, behind resilience restarts).
//
// Every file opens with a 7-byte magic. All integers are little-endian
// int64 on the wire; a float slice is its length followed by the
// values' IEEE-754 bits.
package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

const paramsMagic = "GNNCK1\n"

// WriteParams serializes a flat parameter vector (model checkpoint).
func WriteParams(w io.Writer, params []float64) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(paramsMagic); err != nil {
		return err
	}
	if err := writeFloatSlice(bw, params); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadParams loads a checkpoint written by WriteParams.
func ReadParams(r io.Reader) ([]float64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(paramsMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, err
	}
	if string(head) != paramsMagic {
		return nil, fmt.Errorf("graphio: bad checkpoint magic %q", head)
	}
	return readFloatSlice(br)
}

// maxWireElems bounds any single on-wire element count (slice lengths,
// map sizes): far above every legitimate run, far below anything that
// could exhaust memory on its own.
const maxWireElems = 1 << 31

// capHint bounds a pre-allocation capacity for an on-wire count:
// trust small claims (one allocation), grow incrementally for large
// ones so a lying header costs at most the input's actual length in
// reads, never an up-front giant allocation.
func capHint(n int) int {
	const limit = 1 << 16
	if n > limit {
		return limit
	}
	if n < 0 {
		return 0
	}
	return n
}

func writeInts(w io.Writer, vs ...int64) error {
	buf := make([]byte, 8)
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf, uint64(v))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func readInts(r io.Reader, n int) ([]int64, error) {
	buf := make([]byte, 8)
	out := make([]int64, n)
	for i := range out {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		out[i] = int64(binary.LittleEndian.Uint64(buf))
	}
	return out, nil
}

func writeFloatSlice(w io.Writer, s []float64) error {
	if err := writeInts(w, int64(len(s))); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, v := range s {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func readFloatSlice(r io.Reader) ([]float64, error) {
	n, err := readInts(r, 1)
	if err != nil {
		return nil, err
	}
	if n[0] < 0 || n[0] > maxWireElems {
		return nil, fmt.Errorf("graphio: implausible float-slice length %d", n[0])
	}
	// Incremental growth: a lying length costs at most the input's
	// real size in reads, never an up-front giant allocation.
	out := make([]float64, 0, capHint(int(n[0])))
	buf := make([]byte, 8)
	for i := int64(0); i < n[0]; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf)))
	}
	return out, nil
}

func writeString(w io.Writer, s string) error {
	if err := writeInts(w, int64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	n, err := readInts(r, 1)
	if err != nil {
		return "", err
	}
	if n[0] < 0 || n[0] > 1<<20 {
		return "", fmt.Errorf("graphio: implausible string length %d", n[0])
	}
	buf := make([]byte, n[0])
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
