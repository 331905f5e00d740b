package main

import (
	"strings"
	"testing"
)

// cleanE11 returns a live-transport artifact that satisfies every E11
// bound: exact step accounting, zero corruption, the async/sync speedup,
// and one verify row with every frame decoded.
func cleanE11() benchArtifact {
	return benchArtifact{
		ID: "E11",
		Arms: []e11Arm{
			{
				Label: "async", SustainedMsgsPerSec: 200000, CleanP99Ms: 40,
				Steps: []e11Step{
					{TargetItemsPerSec: 2, OfferedFrames: 60000, DeliveredFrames: 60000},
					{TargetItemsPerSec: 80, OfferedFrames: 2240000, DeliveredFrames: 2200000},
				},
			},
			{
				Label: "sync", SyncWrites: true, SustainedMsgsPerSec: 30000,
				Steps: []e11Step{{TargetItemsPerSec: 2, OfferedFrames: 60000, DeliveredFrames: 60000}},
			},
		},
		Speedup: 200000.0 / 30000,
		Verify:  []e11Verify{{Codec: "binary", Frames: 16384, Decoded: 16384}},
	}
}

func TestGateE11(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(a *benchArtifact)
		wantErr string // empty: the gate must pass
	}{
		{name: "clean artifact passes", mutate: func(*benchArtifact) {}},
		{
			name: "delivered above offered fails",
			mutate: func(a *benchArtifact) {
				a.Arms[0].Steps[0].DeliveredFrames = 60001
			},
			wantErr: "delivered 60001 frames > offered 60000",
		},
		{
			name: "delivered above offered fails on the sync arm too",
			mutate: func(a *benchArtifact) {
				a.Arms[1].Steps[0].DeliveredFrames = 60001
			},
			wantErr: "arm sync rate 2 delivered",
		},
		{
			name: "corrupt verify row fails",
			mutate: func(a *benchArtifact) {
				a.Verify[0].Corrupt = 1
				a.Verify[0].Decoded = 16383
			},
			wantErr: "saw 1 corrupt frames",
		},
		{
			name: "undecoded verify frames fail",
			mutate: func(a *benchArtifact) {
				a.Verify[0].Decoded = 16000
			},
			wantErr: "decoded 16000 of 16384 frames",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := cleanE11()
			tc.mutate(&cur)
			err := gateE11("baseline.json", cleanE11(), cur, 100000, 1500, 5)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed a clean artifact: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatal("gate passed")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
