// Package cache implements vertex feature caching for the feature-
// fetching step. Section 8.1.2 of the paper notes its pipeline "could
// be improved by using sophisticated vertex caching schemes, such as
// those presented in SALIENT++"; this package provides that extension:
// a static degree-ordered cache (hot vertices are overwhelmingly the
// high-degree ones under power-law sampling) and an LRU cache for
// comparison, plus hit-rate accounting so the ablation benches can
// report cache effectiveness.
package cache

import (
	"container/list"
	"sort"
)

// Policy decides which vertices a rank keeps locally.
type Policy int

const (
	// None disables caching.
	None Policy = iota
	// StaticDegree caches the globally highest-degree vertices — the
	// SALIENT++-style static working set.
	StaticDegree
	// LRU keeps the most recently fetched vertices.
	LRU
)

func (p Policy) String() string {
	switch p {
	case None:
		return "none"
	case StaticDegree:
		return "static-degree"
	case LRU:
		return "lru"
	}
	return "unknown"
}

// Stats counts cache outcomes.
type Stats struct {
	Hits, Misses int64
}

// Cache answers "is vertex v locally cached?" and records traffic.
// Implementations are not safe for concurrent use: each simulated rank
// owns its cache.
type Cache interface {
	// Lookup reports whether v's features are cached, updating
	// recency state and statistics.
	Lookup(v int) bool
	// Admit inserts v after a miss (no-op for static policies).
	Admit(v int)
	// Stats returns the traffic counters.
	Stats() Stats
	// Policy identifies the eviction policy.
	Policy() Policy
}

// NewStaticDegree builds a static cache of the capacity highest-degree
// vertices. degrees[v] is vertex v's degree.
func NewStaticDegree(degrees []int, capacity int) Cache {
	if capacity < 0 {
		capacity = 0
	}
	if capacity > len(degrees) {
		capacity = len(degrees)
	}
	order := make([]int, len(degrees))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if degrees[order[a]] != degrees[order[b]] {
			return degrees[order[a]] > degrees[order[b]]
		}
		return order[a] < order[b]
	})
	held := make(map[int]struct{}, capacity)
	for _, v := range order[:capacity] {
		held[v] = struct{}{}
	}
	return &staticCache{held: held}
}

type staticCache struct {
	held  map[int]struct{}
	stats Stats
}

func (c *staticCache) Lookup(v int) bool {
	if _, ok := c.held[v]; ok {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

func (c *staticCache) Admit(int)      {}
func (c *staticCache) Stats() Stats   { return c.stats }
func (c *staticCache) Policy() Policy { return StaticDegree }

// NewLRU builds an LRU cache with the given capacity.
func NewLRU(capacity int) Cache {
	return &lruCache{
		capacity: capacity,
		order:    list.New(),
		elems:    make(map[int]*list.Element, capacity),
	}
}

type lruCache struct {
	capacity int
	order    *list.List // front = most recent; values are vertex ids
	elems    map[int]*list.Element
	stats    Stats
}

func (c *lruCache) Lookup(v int) bool {
	if e, ok := c.elems[v]; ok {
		c.order.MoveToFront(e)
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

func (c *lruCache) Admit(v int) {
	if c.capacity == 0 {
		return
	}
	if e, ok := c.elems[v]; ok {
		c.order.MoveToFront(e)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.elems, oldest.Value.(int))
	}
	c.elems[v] = c.order.PushFront(v)
}

func (c *lruCache) Stats() Stats   { return c.stats }
func (c *lruCache) Policy() Policy { return LRU }

// nullCache is the Policy == None implementation: every lookup misses.
type nullCache struct{ stats Stats }

// NewNull returns a cache that never hits.
func NewNull() Cache { return &nullCache{} }

func (c *nullCache) Lookup(int) bool {
	c.stats.Misses++
	return false
}
func (c *nullCache) Admit(int)      {}
func (c *nullCache) Stats() Stats   { return c.stats }
func (c *nullCache) Policy() Policy { return None }

// New builds a cache for the given policy. degrees is required for
// StaticDegree and ignored otherwise.
func New(p Policy, capacity int, degrees []int) Cache {
	switch p {
	case StaticDegree:
		return NewStaticDegree(degrees, capacity)
	case LRU:
		return NewLRU(capacity)
	default:
		return NewNull()
	}
}
