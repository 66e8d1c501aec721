package lru

import "testing"

// TestLRUEviction pins the memo's bound and recency behaviour.
func TestLRUEviction(t *testing.T) {
	c := New[string, []byte](2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a: b is now coldest
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as the coldest entry")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing after eviction", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	c.Put("a", []byte("A2")) // refresh-in-place must not grow the cache
	if b, _ := c.Get("a"); string(b) != "A2" || c.Len() != 2 {
		t.Fatalf("refresh broke: %q len %d", b, c.Len())
	}
}

// TestLRUClampAndKeys pins the max<1 clamp and the hottest-first keys order
// the anti-entropy sampler reads.
func TestLRUClampAndKeys(t *testing.T) {
	c := New[string, []byte](0) // nonsense bound clamps to 1
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if c.Len() != 1 {
		t.Fatalf("len %d after clamped insert, want 1", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("clamped cache kept two entries")
	}

	c = New[string, []byte](3)
	c.Put("a", nil)
	c.Put("b", nil)
	c.Put("c", nil)
	if got := c.Keys(); len(got) != 3 || got[0] != "c" || got[1] != "b" || got[2] != "a" {
		t.Fatalf("keys %v, want hottest-first [c b a]", got)
	}
	c.Get("a") // refresh: a is hottest now
	if got := c.Keys(); got[0] != "a" {
		t.Fatalf("keys %v after refresh, want a first", got)
	}
}

// TestLRUPeek: Peek reads an entry without refreshing it, so the entry it
// read is still the first one evicted.
func TestLRUPeek(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v; want 1, true", v, ok)
	}
	if _, ok := c.Peek("z"); ok {
		t.Fatal("Peek found an absent key")
	}
	c.Put("c", 3)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("a survived as if Peek had refreshed it")
	}
	if got := c.Keys(); len(got) != 2 || got[0] != "c" || got[1] != "b" {
		t.Fatalf("keys %v, want [c b]", got)
	}
}
