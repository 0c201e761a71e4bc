package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestReportRoundTrip(t *testing.T) {
	rep := NewReport(map[string]string{"profile": "tiny"})
	rep.Add("fig4", []map[string]any{{"p": 4, "total": 1.5}})
	rep.Add("acc", map[string]float64{"test": 0.97})

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta["profile"] != "tiny" {
		t.Fatal("meta lost")
	}
	_, acc := back.Results["acc"]
	_, fig4 := back.Results["fig4"]
	if len(back.Results) != 2 || !acc || !fig4 {
		t.Fatalf("results = %v", back.Results)
	}
}

func TestReportOverwrite(t *testing.T) {
	rep := NewReport(nil)
	rep.Add("x", 1)
	rep.Add("x", 2)
	if len(rep.Results) != 1 {
		t.Fatal("duplicate id not replaced")
	}
}

func TestReportJSONShape(t *testing.T) {
	rep := NewReport(map[string]string{"seed": "7"})
	rep.Add("table3", []int{1, 2, 3})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"meta"`, `"results"`, `"table3"`, `"seed"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON missing %s:\n%s", want, s)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestConcurrentAdd(t *testing.T) {
	rep := NewReport(nil)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep.Add(strings.Repeat("x", i+1), i)
		}(i)
	}
	wg.Wait()
	if len(rep.Results) != 20 {
		t.Fatalf("lost adds: %d", len(rep.Results))
	}
}

// ReadJSON parses a report written by WriteJSON. Row payloads come
// back as generic JSON values; use the typed accessors of the caller
// if needed.
func ReadJSON(rd io.Reader) (*Report, error) {
	var raw struct {
		Meta    map[string]string `json:"meta"`
		Results map[string]any    `json:"results"`
	}
	if err := json.NewDecoder(rd).Decode(&raw); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	rep := NewReport(raw.Meta)
	for id, rows := range raw.Results {
		rep.Add(id, rows)
	}
	return rep, nil
}
