package nic

import "testing"

func TestAddrAllocBumpAndReuse(t *testing.T) {
	a := addrAlloc{next: 0x1000, size: 128}
	a1 := a.get()
	a2 := a.get()
	if a1 != 0x1000 || a2 != 0x1080 {
		t.Fatalf("bump allocation gave %#x, %#x", a1, a2)
	}
	a.put(a1)
	// LIFO reuse: the hottest address comes back first.
	if got := a.get(); got != a1 {
		t.Fatalf("reuse gave %#x, want %#x", got, a1)
	}
	if got := a.get(); got != 0x1100 {
		t.Fatalf("post-reuse bump gave %#x, want 0x1100", got)
	}
}

func TestMutuallyExclusiveConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UseALPU+UseHashList did not panic")
		}
	}()
	New(nil, 0, Config{UseALPU: true, UseHashList: true}, nil, Env{})
}
