package graphio

import (
	"bytes"
	"io"
	"testing"
)

func TestParamsRoundTrip(t *testing.T) {
	params := make([]float64, 1000)
	for i := range params {
		params[i] = float64(i) * 0.001
	}
	var buf bytes.Buffer
	if err := WriteParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	back, err := ReadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1000 {
		t.Fatalf("length %d", len(back))
	}
	for i := range params {
		if back[i] != params[i] {
			t.Fatal("values lost")
		}
	}
}

func TestParamsBadMagic(t *testing.T) {
	if _, err := ReadParams(bytes.NewReader([]byte("NOPE!!\nxxxxxxxx"))); err == nil {
		t.Fatal("expected magic error")
	}
}

// failAfter returns an io.Writer that errors after n bytes, for
// error-path coverage.
type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errShort
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errShort
	}
	f.n -= len(p)
	return len(p), nil
}

var errShort = bytes.ErrTooLarge

// TestWritersPropagateErrors cuts each format's writer at every byte
// budget short of its full encoding: every cut must surface the
// writer's error, and the full budget must succeed.
func TestWritersPropagateErrors(t *testing.T) {
	params := make([]float64, 100)
	for i := range params {
		params[i] = float64(i) / 3
	}
	for _, tc := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"params", func(w io.Writer) error { return WriteParams(w, params) }},
		{"checkpoint", func(w io.Writer) error { return WriteCheckpoint(w, randCheckpoint(3)) }},
	} {
		var full bytes.Buffer
		if err := tc.write(&full); err != nil {
			t.Fatal(err)
		}
		for budget := 0; budget < full.Len(); budget++ {
			if err := tc.write(&failAfter{n: budget}); err == nil {
				t.Fatalf("%s: budget %d/%d: expected write error", tc.name, budget, full.Len())
			}
		}
		if err := tc.write(&failAfter{n: full.Len()}); err != nil {
			t.Fatalf("%s: full budget %d: %v", tc.name, full.Len(), err)
		}
	}
}

func TestReadParamsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteParams(&buf, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadParams(bytes.NewReader(data[:len(data)-4])); err == nil {
		t.Fatal("expected truncation error")
	}
}
