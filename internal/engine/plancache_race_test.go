package engine_test

import (
	"sync"
	"testing"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/monitor"
)

// TestPlanCacheRacingMissOnePlan: sessions that miss on one statement text
// at the same time may each compile it, but all of them must come away
// with the one cached plan, so the monitor computes its signature once.
func TestPlanCacheRacingMissOnePlan(t *testing.T) {
	e, err := engine.Open(engine.Config{PoolPages: 256, LockTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.NewSession("setup", "t").Exec("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)", nil); err != nil {
		t.Fatal(err)
	}

	const racers = 16
	const sql = "SELECT v FROM t WHERE id = @id"
	plans := make([]any, racers)
	infos := make([]*engine.QueryInfo, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var err error
			plans[i], infos[i], err = e.PlanForTest(sql)
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	sigs := monitor.NewSigCache()
	for i := range plans {
		if plans[i] != plans[0] {
			t.Fatalf("racer %d got a different plan than racer 0", i)
		}
		sigs.For(infos[i])
	}
	if got := sigs.Computes(); got != 1 {
		t.Fatalf("signature computed %d times for one statement text across %d racers, want 1", got, racers)
	}
}
