package main

import (
	"testing"
	"time"
)

func okFlags() daemonFlags {
	return daemonFlags{
		httpAddr:   "127.0.0.1:8090",
		ingestAddr: "127.0.0.1:7070",
		dist:       2.0,
		shards:     1,
		maxSess:    128,
		maxSubs:    16,
		queue:      256,
		idle:       2 * time.Minute,
		reorder:    25 * time.Millisecond,
		maxAcquire: 400,
		walSync:    64,
		logLevel:   "info",
		logFormat:  "text",
	}
}

func TestValidateFlags(t *testing.T) {
	if err := okFlags().validate(); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*daemonFlags)
	}{
		{"empty http", func(f *daemonFlags) { f.httpAddr = "  " }},
		{"empty ingest", func(f *daemonFlags) { f.ingestAddr = "" }},
		{"same addr", func(f *daemonFlags) { f.ingestAddr = "127.0.0.1:8090" }},
		{"bad dist", func(f *daemonFlags) { f.dist = -1.0 }},
		{"zero shards", func(f *daemonFlags) { f.shards = 0 }},
		{"zero sessions", func(f *daemonFlags) { f.maxSess = 0 }},
		{"zero subscribers", func(f *daemonFlags) { f.maxSubs = 0 }},
		{"zero queue", func(f *daemonFlags) { f.queue = 0 }},
		{"zero idle", func(f *daemonFlags) { f.idle = 0 }},
		{"negative retain", func(f *daemonFlags) { f.retain = -time.Second }},
		{"zero reorder", func(f *daemonFlags) { f.reorder = 0 }},
		{"zero max-acquire", func(f *daemonFlags) { f.maxAcquire = 0 }},
		{"zero wal-sync", func(f *daemonFlags) { f.walSync = 0 }},
		{"negative eval capacity", func(f *daemonFlags) { f.evalCapacity = -1 }},
		{"park above shed", func(f *daemonFlags) { f.shedAt = 0.5; f.parkAt = 0.9 }},
		{"park above default shed", func(f *daemonFlags) { f.parkAt = 0.95 }},
		{"default park above shed", func(f *daemonFlags) { f.shedAt = 0.5 }},
		{"sub-millisecond idle", func(f *daemonFlags) { f.idle = 500 * time.Microsecond }},
		{"negative trace sample", func(f *daemonFlags) { f.traceSampleN = -1 }},
		{"bad log format", func(f *daemonFlags) { f.logFormat = "xml" }},
		{"bad log level", func(f *daemonFlags) { f.logLevel = "shouting" }},
	}
	for _, tc := range cases {
		f := okFlags()
		tc.mut(&f)
		if err := f.validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestValidateFlagsPolicyToggles: 0 means "use the default" and
// negative disables for both thresholds — all must validate.
func TestValidateFlagsPolicyToggles(t *testing.T) {
	for _, v := range []float64{0, -1, 0.5} {
		f := okFlags()
		f.shedAt = v
		f.parkAt = v / 2
		if err := f.validate(); err != nil {
			t.Errorf("shed-at %v: %v", v, err)
		}
	}
	f := okFlags()
	f.retain = time.Hour
	if err := f.validate(); err != nil {
		t.Errorf("retain: %v", err)
	}
}
