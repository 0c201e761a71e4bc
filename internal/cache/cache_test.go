package cache

import (
	"math/rand"
	"testing"
)

func TestStaticDegreeCachesHottest(t *testing.T) {
	degrees := []int{5, 100, 3, 80, 1}
	c := NewStaticDegree(degrees, 2)
	if !c.Lookup(1) || !c.Lookup(3) {
		t.Fatal("highest-degree vertices not cached")
	}
	for _, v := range []int{0, 2, 4} {
		if c.Lookup(v) {
			t.Fatalf("low-degree vertex %d cached", v)
		}
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() != 0.4 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

func TestStaticDegreeTieBreakDeterministic(t *testing.T) {
	degrees := []int{7, 7, 7, 7}
	a := NewStaticDegree(degrees, 2)
	b := NewStaticDegree(degrees, 2)
	for v := 0; v < 4; v++ {
		if a.Lookup(v) != b.Lookup(v) {
			t.Fatal("tie-breaking not deterministic")
		}
	}
}

func TestStaticDegreeCapacityClamps(t *testing.T) {
	c := NewStaticDegree([]int{1, 2}, 100)
	if !c.Lookup(0) || !c.Lookup(1) {
		t.Fatal("over-capacity static cache should hold everything")
	}
	c2 := NewStaticDegree([]int{1, 2}, -5)
	if c2.Lookup(0) || c2.Lookup(1) {
		t.Fatal("negative capacity should cache nothing")
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewLRU(2)
	c.Admit(1)
	c.Admit(2)
	if !c.Lookup(1) || !c.Lookup(2) {
		t.Fatal("admitted vertices missing")
	}
	c.Admit(3) // evicts 1 (2 was more recently touched... order: lookup(2) after lookup(1))
	if c.Lookup(1) {
		t.Fatal("LRU should have evicted vertex 1")
	}
	if !c.Lookup(3) || !c.Lookup(2) {
		t.Fatal("recent vertices evicted")
	}
}

func TestLRURecencyUpdatedByLookup(t *testing.T) {
	c := NewLRU(2)
	c.Admit(1)
	c.Admit(2)
	c.Lookup(1) // 1 becomes most recent
	c.Admit(3)  // evicts 2
	if c.Lookup(2) {
		t.Fatal("vertex 2 should have been evicted")
	}
	if !c.Lookup(1) {
		t.Fatal("recently used vertex 1 evicted")
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := NewLRU(0)
	c.Admit(1)
	if c.Lookup(1) {
		t.Fatal("zero-capacity cache should never hit")
	}
}

func TestLRUAdmitExistingMovesToFront(t *testing.T) {
	c := NewLRU(2)
	c.Admit(1)
	c.Admit(2)
	c.Admit(1) // refresh, not duplicate
	c.Admit(3) // evicts 2
	if c.Lookup(2) {
		t.Fatal("vertex 2 should be evicted after refresh of 1")
	}
	if !c.Lookup(1) || !c.Lookup(3) {
		t.Fatal("refreshed or new vertex missing")
	}
}

func TestNullCacheNeverHits(t *testing.T) {
	c := NewNull()
	c.Admit(7)
	if c.Lookup(7) {
		t.Fatal("null cache hit")
	}
	if c.Stats().Misses != 1 {
		t.Fatal("miss not counted")
	}
}

func TestNewDispatch(t *testing.T) {
	if New(StaticDegree, 1, []int{1, 2}).Policy() != StaticDegree {
		t.Fatal("static dispatch")
	}
	if New(LRU, 1, nil).Policy() != LRU {
		t.Fatal("lru dispatch")
	}
	if New(None, 1, nil).Policy() != None {
		t.Fatal("none dispatch")
	}
}

func TestPolicyStrings(t *testing.T) {
	if None.String() != "none" || StaticDegree.String() != "static-degree" || LRU.String() != "lru" {
		t.Fatal("policy strings wrong")
	}
	if Policy(99).String() != "unknown" {
		t.Fatal("unknown policy string")
	}
}

func TestStaticDegreeBeatsLRUOnPowerLaw(t *testing.T) {
	// Under Zipf-like access, a degree-ordered static cache should
	// match or beat a same-size LRU because the hot set is stable.
	rng := rand.New(rand.NewSource(1))
	n := 1000
	degrees := make([]int, n)
	for i := range degrees {
		degrees[i] = n / (i + 1) // vertex 0 hottest
	}
	static := NewStaticDegree(degrees, 50)
	lru := NewLRU(50)
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(n-1))
	for i := 0; i < 20000; i++ {
		v := int(zipf.Uint64())
		static.Lookup(v)
		if !lru.Lookup(v) {
			lru.Admit(v)
		}
	}
	if static.Stats().HitRate() < lru.Stats().HitRate()*0.9 {
		t.Fatalf("static %.3f much worse than LRU %.3f",
			static.Stats().HitRate(), lru.Stats().HitRate())
	}
}

func TestHitRateEmpty(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty stats hit rate should be 0")
	}
}

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
