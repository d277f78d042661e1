package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// A shared box runs 10 to 20 per cent faster or slower from one minute to
// the next, which no amount of repetition inside a 20-second run averages
// out. So every round also times a fixed piece of work that uses nothing of
// the program under test, and the time-based end-to-end metrics are scaled
// to a machine on which that work takes calibNominal. On this box the
// scaling roughly halves the run-to-run spread.
const calibNominal = 55 * time.Millisecond

// calibLines is the fixed input of the calibration kernel.
var calibLines = func() [][]byte {
	lines := make([][]byte, 4000)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf(`{"id":%d,"user_id":%d,"text":"calibration line number %d with some words in it","lang":"en","retweets":%d,"lat":%.4f,"lon":%.4f}`,
			i, i%977, i, i%13, float64(i%180)-90, float64(i%360)-180))
	}
	return lines
}()

// kernel decodes the lines with the standard library and counts values in a
// map, which allocates and scans memory much as a query over the raw logs
// does.
func kernel() {
	counts := map[string]int{}
	for pass := 0; pass < 2; pass++ {
		for _, line := range calibLines {
			var rec map[string]any
			if err := json.Unmarshal(line, &rec); err != nil {
				panic(err) // the input is fixed and valid
			}
			counts[rec["lang"].(string)] += len(rec)
		}
	}
}

// calibrate times the kernel once on one goroutine and then once on every
// processor at the same time: a query plans on one and executes its morsels
// on all, so it feels a busy neighbour on either.
func calibrate() time.Duration {
	t := time.Now()
	kernel()
	var wg sync.WaitGroup
	for p := 0; p < runtime.GOMAXPROCS(0); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernel()
		}()
	}
	wg.Wait()
	return time.Since(t)
}

// calibrate appends n kernel timings, in milliseconds, to the round's.
func (rd *round) calibrate(n int) {
	for i := 0; i < n; i++ {
		rd.calibMs = append(rd.calibMs, ms(calibrate()))
	}
}

// speed is how much slower than nominal the machine ran during the round:
// measured times are divided by it, rates multiplied.
func (rd *round) speed() float64 { return median(rd.calibMs) / ms(calibNominal) }
