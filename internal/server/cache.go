package server

import (
	"sync"

	"lambmesh/internal/routing"
)

// routeCache memoizes deterministic route answers within one epoch, keyed
// by (src,dst) linear indices. It is sharded to keep lock contention off
// the query hot path: a shard is picked by a cheap hash of the pair, so
// concurrent queries for different pairs almost never share a lock. The
// cache never invalidates entries — the whole cache is dropped with its
// epoch on swap, which is the only event that changes any answer.
type routeCache struct {
	shards [cacheShards]cacheShard
}

const cacheShards = 32

type cacheShard struct {
	mu sync.RWMutex
	m  map[pairKey]*cacheEntry
}

type pairKey struct {
	src, dst int64
}

// cacheEntry is immutable once stored: either the found route or the
// reason no route exists.
type cacheEntry struct {
	route  *routing.Route
	reason string
}

func newRouteCache() *routeCache {
	c := &routeCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[pairKey]*cacheEntry)
	}
	return c
}

func (c *routeCache) shard(k pairKey) *cacheShard {
	// Fibonacci-style mix of the pair; shard count is a power of two.
	h := uint64(k.src)*0x9e3779b97f4a7c15 ^ uint64(k.dst)*0xc2b2ae3d27d4eb4f
	return &c.shards[(h>>32)&(cacheShards-1)]
}

func (c *routeCache) get(k pairKey) (*cacheEntry, bool) {
	s := c.shard(k)
	s.mu.RLock()
	e, ok := s.m[k]
	s.mu.RUnlock()
	return e, ok
}

func (c *routeCache) put(k pairKey, e *cacheEntry) {
	s := c.shard(k)
	s.mu.Lock()
	s.m[k] = e
	s.mu.Unlock()
}

// len returns the number of cached pairs (test and metrics helper); 0 for
// the nil cache of a class-table epoch.
func (c *routeCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
