package main

import "testing"

// A hand-built trace of one wire request, times in ns:
//
//	client    [0 ........................................ 100)
//	engine          [10 ........................ 70)
//	  start hook      [12 . 15)
//	  commit hook                     [50 ..... 68)
//	  blocked hook                        [55 . 62)      nested in commit
//	engine #2 (overlaps #1)                [60 ......... 80)
//	stray                                                      [95 ... 120)
func TestSelfTimeHandBuiltTree(t *testing.T) {
	client := span{0, 100}
	engine := span{10, 70}
	engine2 := span{60, 80}
	startHook := span{12, 15}
	commitHook := span{50, 68}
	blockedHook := span{55, 62}
	stray := span{95, 120}

	cases := []struct {
		name     string
		parent   span
		children []span
		want     int64
	}{
		{"no children", client, nil, 100},
		{"one nested child", client, []span{engine}, 40},
		{"overlapping children count once", client, []span{engine, engine2}, 30},
		{"child sticking out is clipped", client, []span{engine, engine2, stray}, 25},
		{"grandchildren inside a child add nothing", client, []span{engine, commitHook, blockedHook}, 40},
		{"engine self time", engine, []span{startHook, commitHook}, 60 - 3 - 18},
		{"nested child of a child", commitHook, []span{blockedHook}, 11},
		{"duplicate children", engine, []span{startHook, startHook}, 57},
		{"child outside parent", startHook, []span{commitHook}, 3},
		{"child covering parent", blockedHook, []span{commitHook}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestCoveredOrderIndependent(t *testing.T) {
	parent := span{0, 1000}
	kids := []span{{700, 900}, {100, 200}, {150, 400}, {390, 410}, {880, 1200}}
	want := int64(310 + 300) // [100,410) and [700,1000)
	if got := covered(parent, kids); got != want {
		t.Fatalf("covered = %d, want %d", got, want)
	}
	rev := []span{kids[4], kids[3], kids[2], kids[1], kids[0]}
	if got := covered(parent, rev); got != want {
		t.Fatalf("covered (reversed) = %d, want %d", got, want)
	}
}

func TestPercentileAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 = %v", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 90}, {10000, 99.9}, {100000, 99.99}, {20, 50}, {19, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
