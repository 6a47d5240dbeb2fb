package main

import "testing"

func TestUnionCountsOverlapOnce(t *testing.T) {
	if got := union([][2]int64{{0, 10}, {5, 15}, {20, 30}, {22, 25}}); got != 25 {
		t.Errorf("union = %d, want 25", got)
	}
	if got := union(nil); got != 0 {
		t.Errorf("union(nil) = %d, want 0", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	// request [0,100µs]: execute [10,90] with two overlapping calls
	// [20,50] and [40,70]; one market serve [25,45] inside the first call.
	spans := []span{
		{ID: 1, Parent: 0, Name: spanRequest, Start: 0, End: 100_000},
		{ID: 2, Parent: 1, Name: spanExecute, Start: 10_000, End: 90_000},
		{ID: 3, Parent: 2, Name: spanCall, Start: 20_000, End: 50_000},
		{ID: 4, Parent: 2, Name: spanCall, Start: 40_000, End: 70_000},
		{ID: 5, Parent: 3, Name: spanServe, Start: 25_000, End: 45_000},
	}
	got := selfTimes(spans)
	for name, want := range map[string]layerTime{
		spanRequest: {Count: 1, TotalUs: 100, SelfUs: 20},
		spanExecute: {Count: 1, TotalUs: 80, SelfUs: 30}, // calls cover [20,70]
		spanCall:    {Count: 2, TotalUs: 60, SelfUs: 40},
		spanServe:   {Count: 1, TotalUs: 20, SelfUs: 20},
	} {
		if lt := got[name]; lt == nil || *lt != want {
			t.Errorf("%s = %+v, want %+v", name, lt, want)
		}
	}
}

func TestSpansTieCallsAndServesToTheirRequest(t *testing.T) {
	rt := &reqTrace{Start: 1, BodyRead: 2, ReserveStart: 3, ReserveEnd: 4, SettleStart: 90, SettleEnd: 91, End: 100}
	rt.Calls = []interval{{Table: "Weather", Start: 10, End: 40}}
	dump := traceDump{
		Requests: []*reqTrace{{Start: 0, End: 1}, rt}, // the first is the pre-warm
		Serves: []interval{
			{Table: "Weather", Start: 12, End: 20}, // page 0
			{Table: "Weather", Start: 22, End: 30}, // page 1
			{Table: "Station", Start: 13, End: 19}, // another table: not this call's
			{Table: "Weather", Start: 50, End: 60}, // after the call
		},
	}
	var calls, serves int
	spans := spansOf(dump, 1)
	for _, s := range spans {
		if s.Req != 1 {
			t.Errorf("span %d belongs to request %d, want 1", s.ID, s.Req)
		}
		switch s.Name {
		case spanCall:
			calls++
			if spans[s.Parent-1].Name != spanExecute {
				t.Errorf("call parent is %s, want %s", spans[s.Parent-1].Name, spanExecute)
			}
		case spanServe:
			serves++
			if spans[s.Parent-1].Name != spanCall {
				t.Errorf("serve parent is %s, want %s", spans[s.Parent-1].Name, spanCall)
			}
		}
	}
	if calls != 1 || serves != 2 {
		t.Errorf("got %d calls and %d serves, want 1 and 2", calls, serves)
	}
}
