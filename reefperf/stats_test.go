package main

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	five := []float64{40, 15, 50, 35, 20}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.05, 15}, {0.3, 20}, {0.4, 20}, {0.5, 35}, {0.99, 50}, {1, 50}} {
		if got := quantile(five, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", five, c.q, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := quantile(hundred, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := quantile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	ms := time.Millisecond
	sent := []time.Time{
		start,                              // due 0: on time
		start.Add(1500 * time.Microsecond), // due 1ms: 500µs late
		start.Add(2 * ms),                  // due 2ms: on time
		start.Add(2500 * time.Microsecond), // due 3ms: early counts as 0
		start.Add(7 * ms),                  // due 4ms: 3ms late
	}
	want := []float64{0, 500, 0, 0, 3000}
	got := lateness(start, ms, sent)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lateness[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPayloadChecksum(t *testing.T) {
	for _, size := range []int{1, 12, 64, 4096} {
		p := makePayload(77, size)
		if id, ok := parsePayload(p); !ok || id != 77 {
			t.Fatalf("size %d: parse = %d, %v", size, id, ok)
		}
		p[len(p)/2] ^= 1
		if _, ok := parsePayload(p); ok {
			t.Fatalf("size %d: corrupted payload passed its checksum", size)
		}
	}
}

func TestPlacementFNV1a(t *testing.T) {
	// Hand-computed 32-bit FNV-1a hashes modulo 3.
	for user, want := range map[string]int{"user-000": 0, "user-001": 1, "rel-00": 1, "a": 1} {
		if got := placement(user, 3); got != want {
			t.Errorf("placement(%q, 3) = %d, want %d", user, got, want)
		}
	}
}

func TestRate(t *testing.T) {
	var r rate
	if got := r.perSecond(); got != 0 {
		t.Errorf("rate of nothing = %v, want 0", got)
	}
	// Two rounds: 300 events in 1 s and 100 in 3 s average to 100/s,
	// not the 300/s of the faster round.
	r.add(300, time.Second)
	r.add(100, 3*time.Second)
	if got := r.perSecond(); got != 100 {
		t.Errorf("rate = %v, want 100", got)
	}
}

func TestCredits(t *testing.T) {
	c := newCredits(4, 2, 2) // 4 in all, 2 per subscription
	if !c.acquire([]int{0, 0}, time.Second) {
		t.Fatal("two credits of subscription 0 should fit")
	}
	if c.acquire([]int{0}, 10*time.Millisecond) {
		t.Fatal("a third credit of subscription 0 should not fit")
	}
	if !c.acquire([]int{1, 1}, time.Second) {
		t.Fatal("two credits of subscription 1 should fit")
	}
	if got := c.held(); got != 4 {
		t.Fatalf("held = %d, want 4", got)
	}
	done := make(chan bool)
	go func() { done <- c.acquire([]int{0}, 5*time.Second) }()
	c.release(0, 1)
	if !<-done {
		t.Fatal("a released credit should admit the waiting caller")
	}
	if got := c.held(); got != 4 {
		t.Errorf("held = %d, want 4", got)
	}
}

func TestSlices(t *testing.T) {
	r := &results{}
	slice := func(publish []float64, events int, d time.Duration) {
		r.startSlice()
		r.publishUs = append(r.publishUs, publish...)
		r.sustained.add(events, d)
		r.endSlice()
	}
	slice([]float64{3, 1, 2}, 100, time.Second)  // p50 2, 100/s
	slice([]float64{10}, 300, time.Second)       // p50 10, 300/s
	slice([]float64{20, 30}, 200, 2*time.Second) // p50 20 (nearest rank), 100/s
	m := r.figures()
	if got := m["publish_p50_us"].Value; got != 10 {
		t.Errorf("publish_p50_us = %v, want 10, the median of the slices' p50s 2, 10, 20", got)
	}
	if got := m["sustained_eps"].Value; got != 100 {
		t.Errorf("sustained_eps = %v, want 100, the median of 100, 300, 100", got)
	}
	if got := len(r.slices.deliver); got != 0 {
		t.Errorf("%d deliver slices from slices without deliveries, want 0", got)
	}
}
