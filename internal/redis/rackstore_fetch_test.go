package redis

import (
	"bytes"
	"fmt"
	"testing"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
)

// --- one fetch per probe: the request path's fabric traffic, exactly ---

// entryOf returns the ref the index holds for key (first salt: the tests
// use few keys, so no chain ever forms).
func entryOf(t *testing.T, v *View, key string) entryRef {
	t.Helper()
	ev, ok := v.s.index.Get(v.n, slotKey(keyHash(key), 0))
	if !ok {
		t.Fatalf("key %q not in the index", key)
	}
	return entryRef(ev)
}

// A GET hit fetches the entry block once: one miss per line the block
// spans and exactly its bytes over the bulk path, cold or warm.
func TestRackStoreSingleFetchGetHit(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	w, r := s.Attach(f.Node(0)), s.Attach(f.Node(1))
	for _, vlen := range []int{0, 40, 64, 1000, 4096} {
		key := fmt.Sprintf("get-hit-%d", vlen)
		val := bytes.Repeat([]byte{byte(vlen)}, vlen)
		if err := w.Set(key, val, 0); err != nil {
			t.Fatal(err)
		}
		ref := entryOf(t, w, key)
		size := uint64(entryHdrSize + len(key) + vlen)
		if ref.size() != size {
			t.Fatalf("vlen %d: ref size %d, want %d", vlen, ref.size(), size)
		}
		first, last := fabric.LineSpan(ref.addr(), size)
		lines := last - first + 1
		for _, pass := range []string{"cold", "warm"} {
			before := r.n.Stats()
			got, ok := r.Get(key)
			d := r.n.Stats().Delta(before)
			if !ok || !bytes.Equal(got, val) {
				t.Fatalf("vlen %d %s: get ok=%v len=%d", vlen, pass, ok, len(got))
			}
			if d.Misses != lines || d.BulkBytesRead != size {
				t.Fatalf("vlen %d %s: %d misses and %d bulk bytes, want %d and %d",
					vlen, pass, d.Misses, d.BulkBytesRead, lines, size)
			}
		}
	}
}

// Overwriting a large value reads only the old entry's header and key:
// the writer needs the binding and the deleted flag, never the value,
// and reuses the probed header for the entry its Exchange displaced.
func TestRackStoreSingleFetchSetReadsHeaderAndKey(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	a, b := s.Attach(f.Node(0)), s.Attach(f.Node(1))
	const key = "set-over-big"
	if err := a.Set(key, make([]byte, 1024), 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range []*View{b, a} {
		before := v.n.Stats()
		if err := v.Set(key, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
		d := v.n.Stats().Delta(before)
		if want := uint64(entryHdrSize + len(key)); d.BulkBytesRead != want {
			t.Fatalf("overwrite %d read %d bulk bytes of the old entry, want %d", i, d.BulkBytesRead, want)
		}
	}
	if got, ok := a.Get(key); !ok || !bytes.Equal(got, []byte{1}) {
		t.Fatalf("after overwrites: %v ok=%v", got, ok)
	}
	if s.Len(f.Node(0)) != 1 {
		t.Fatalf("live count %d after overwrites, want 1", s.Len(f.Node(0)))
	}
}

// Entry refs keep the block's address and byte length apart at both
// extremes: the largest entry and the highest address the field holds.
func TestRackStoreSingleFetchRefRoundTrip(t *testing.T) {
	maxBlock := entryHdrSize + MaxEntryBytes
	if maxBlock != alloc.MaxAlloc {
		t.Fatalf("largest entry block %d bytes, allocator's largest %d", maxBlock, alloc.MaxAlloc)
	}
	top := fabric.GPtr(1<<refAddrBits - fabric.LineSize)
	for _, c := range []struct {
		addr fabric.GPtr
		size int
	}{{fabric.LineSize, maxBlock}, {top, maxBlock}, {top, entryHdrSize}, {fabric.LineSize, entryHdrSize}} {
		r := makeRef(c.addr, c.size)
		if r.addr() != c.addr || r.size() != uint64(c.size) || uint64(r) >= 1<<63 {
			t.Fatalf("ref(%v, %d) = %#x: addr %v size %d", c.addr, c.size, uint64(r), r.addr(), r.size())
		}
	}

	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	a, b := s.Attach(f.Node(0)), s.Attach(f.Node(1))
	const key = "max"
	val := make([]byte, MaxEntryBytes-len(key))
	for i := range val {
		val[i] = byte(i * 7)
	}
	if err := a.Set(key, val, 0); err != nil {
		t.Fatal(err)
	}
	if r := entryOf(t, a, key); r.size() != uint64(maxBlock) {
		t.Fatalf("max entry ref size %d, want %d", r.size(), maxBlock)
	}
	if got, ok := b.Get(key); !ok || !bytes.Equal(got, val) {
		t.Fatalf("max entry read back: ok=%v len=%d", ok, len(got))
	}
}

// A block freed and re-allocated at the same address must read fresh on a
// node whose cache still holds the lines of its previous life: the probe's
// invalidate covers every byte it then reads.
func TestRackStoreSingleFetchRecycledBlockFresh(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	w, r := s.Attach(f.Node(0)), s.Attach(f.Node(1))
	const key = "recycled"
	v1, v2, v3 := bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 100), bytes.Repeat([]byte{3}, 100)
	if err := w.Set(key, v1, 0); err != nil {
		t.Fatal(err)
	}
	old := entryOf(t, w, key)
	if got, ok := r.Get(key); !ok || !bytes.Equal(got, v1) {
		t.Fatalf("first read: ok=%v", ok)
	}
	if err := w.Set(key, v2, 0); err != nil {
		t.Fatal(err)
	}
	w.Barrier() // the v1 block returns to w's allocator
	if err := w.Set(key, v3, 0); err != nil {
		t.Fatal(err)
	}
	if cur := entryOf(t, w, key); cur.addr() != old.addr() {
		t.Fatalf("allocator did not recycle the v1 block (%v, now %v); the test needs the same address", old.addr(), cur.addr())
	}
	if got, ok := r.Get(key); !ok || !bytes.Equal(got, v3) {
		t.Fatalf("read of a recycled block returned %d bytes starting %v, ok=%v; want 3s", len(got), got[:min(len(got), 4)], ok)
	}
}
