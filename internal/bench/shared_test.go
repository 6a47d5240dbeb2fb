package bench

import (
	"testing"

	"payless/internal/workload"
)

func smallSharedParams() SharedParams {
	cfg := workload.DefaultWHWConfig()
	cfg.Countries = 4
	cfg.StationsPerCountry = 5
	cfg.CitiesPerCountry = 2
	cfg.Days = 10
	cfg.Zips = 20
	return SharedParams{
		Cfg:     cfg,
		Levels:  []int{1, 8},
		Queries: 3,
	}
}

// TestFigSharedSchedulerSavesAtN8 is the bench gate of the scheduler:
// eight concurrent streams replaying the same queries through one client
// must bill exactly the serial price — less than eight independent buyers
// would. FigShared itself errors on any divergence from the serial bill,
// and we re-assert both here.
func TestFigSharedSchedulerSavesAtN8(t *testing.T) {
	fig, err := FigShared(smallSharedParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series shape: %+v", fig.Series)
	}
	independent, shared := fig.Series[0], fig.Series[1]
	if len(independent.Y) != 2 || len(shared.Y) != 2 {
		t.Fatalf("level shape: independent %+v shared %+v", independent, shared)
	}
	if shared.Y[1] != shared.Y[0] {
		t.Fatalf("N=8 bill %d differs from the serial bill %d", shared.Y[1], shared.Y[0])
	}
	if shared.Y[1] >= independent.Y[1] {
		t.Fatalf("bench gate: N=8 bill %d not below 8 x serial %d", shared.Y[1], independent.Y[1])
	}
	if out := fig.Render(); len(out) == 0 {
		t.Error("empty render")
	}
}
