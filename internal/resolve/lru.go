package resolve

import (
	"container/list"
	"sync"
)

// LRU is a bounded key → bytes memo: the exact bytes once served for a key,
// so a hit is byte-identical to the lead that filled it. It locks itself;
// a Flight reads and fills it under its own lock as well, which makes "memo
// miss, register lead" one atomic step (two racing misses on one key resolve
// to one lead, never two).
type LRU struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key  string
	body []byte
}

// NewLRU returns an LRU holding at most max entries (a bound below 1 holds
// one).
func NewLRU(max int) *LRU {
	if max < 1 {
		max = 1
	}
	return &LRU{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the held bytes and refreshes the entry's recency.
func (c *LRU) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).body, true
}

// Put inserts or refreshes an entry, evicting from the cold end when over
// capacity.
func (c *LRU) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).body = body
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, body: body})
	for c.ll.Len() > c.max {
		cold := c.ll.Back()
		c.ll.Remove(cold)
		delete(c.items, cold.Value.(*lruEntry).key)
	}
}

// Len is the number of held entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Keys lists the held keys hottest-first, without touching recency.
func (c *LRU) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry).key)
	}
	return out
}
