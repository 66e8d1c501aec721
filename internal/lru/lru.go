// Package lru is a bounded, self-locking least-recently-used map: the memo
// behind the result and snapshot flights (internal/resolve) and the
// process-wide program-image cache (internal/sim).
package lru

import (
	"container/list"
	"sync"
)

// LRU is a bounded key → value memo. It locks itself; a caller that needs
// "miss, then register" as one atomic step (internal/resolve's Flight) reads
// and fills it under its own lock as well.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an LRU holding at most max entries (a bound below 1 holds
// one).
func New[K comparable, V any](max int) *LRU[K, V] {
	if max < 1 {
		max = 1
	}
	return &LRU[K, V]{max: max, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the held value and refreshes the entry's recency.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put inserts or refreshes an entry, evicting from the cold end when over
// capacity.
func (c *LRU[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry[K, V]).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	for c.ll.Len() > c.max {
		cold := c.ll.Back()
		c.ll.Remove(cold)
		delete(c.items, cold.Value.(*entry[K, V]).key)
	}
}

// Remove drops key's entry, if held.
func (c *LRU[K, V]) Remove(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

// Len is the number of held entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Keys lists the held keys hottest-first, without touching recency.
func (c *LRU[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]K, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[K, V]).key)
	}
	return out
}
