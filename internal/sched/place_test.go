package sched

import (
	"reflect"
	"testing"
)

func TestPlaceRoundRobinAllAlive(t *testing.T) {
	queues, ok := PlaceRoundRobin(7, 3, nil)
	if !ok {
		t.Fatal("no placement with all homes alive")
	}
	want := [][]int32{{0, 3, 6}, {1, 4}, {2, 5}}
	if !reflect.DeepEqual(queues, want) {
		t.Fatalf("queues = %v, want %v", queues, want)
	}
}

func TestPlaceRoundRobinRoutesAroundDeadHome(t *testing.T) {
	alive := func(h int) bool { return h != 1 }
	queues, ok := PlaceRoundRobin(6, 3, alive)
	if !ok {
		t.Fatal("no placement with two homes alive")
	}
	// Home 1's items (1, 4) land on the next alive home in ring order,
	// which is home 2.
	want := [][]int32{{0, 3}, nil, {1, 2, 4, 5}}
	if !reflect.DeepEqual(queues, want) {
		t.Fatalf("queues = %v, want %v", queues, want)
	}
}

func TestPlaceRoundRobinNoHomeAlive(t *testing.T) {
	if _, ok := PlaceRoundRobin(4, 3, func(int) bool { return false }); ok {
		t.Fatal("placement reported ok with every home dead")
	}
	if _, ok := PlaceRoundRobin(4, 0, nil); ok {
		t.Fatal("placement reported ok with zero homes")
	}
}
