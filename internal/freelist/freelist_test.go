package freelist

import "testing"

func TestTakeReturnsTheLastPut(t *testing.T) {
	var l List[*int]
	if x, ok := l.Take(); ok || x != nil {
		t.Fatalf("empty list gave %v, %v", x, ok)
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	for _, want := range []*int{b, a} {
		if x, ok := l.Take(); !ok || x != want {
			t.Fatalf("Take = %p, %v; want %p", x, ok, want)
		}
	}
	if _, ok := l.Take(); ok {
		t.Fatal("drained list gave a value")
	}
}
