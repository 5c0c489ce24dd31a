package experiments

import (
	"fmt"
	"reflect"
	"testing"
)

func TestRegistryCoversE1ToE16(t *testing.T) {
	reg := Registry()
	if len(reg) != 16 {
		t.Fatalf("%d registered experiments, want 16", len(reg))
	}
	for i, e := range reg {
		want := fmt.Sprintf("E%d", i+1)
		if e.ID != want {
			t.Errorf("slot %d holds %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
		got, ok := Lookup(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("Lookup(%s) failed", e.ID)
		}
	}
	// Lookup is case-insensitive and trims.
	if e, ok := Lookup(" e7 "); !ok || e.ID != "E7" {
		t.Error("Lookup must be case-insensitive")
	}
	if _, ok := Lookup("E17"); ok {
		t.Error("Lookup must reject unknown ids")
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run([]string{"E99"}, 1); err == nil {
		t.Fatal("unknown id must fail")
	}
}

// TestRunConcurrentMatchesSerial runs a fast subset of experiments on
// one worker and on four and requires identical results: the registry
// contract is that every experiment owns its engines and seeds, so the
// numbers cannot depend on scheduling.
func TestRunConcurrentMatchesSerial(t *testing.T) {
	ids := []string{"E1", "E4", "E8", "E12", "E10"}
	serial, err := Run(ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(ids, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(ids) || len(parallel) != len(ids) {
		t.Fatalf("result counts: serial %d, parallel %d, want %d", len(serial), len(parallel), len(ids))
	}
	for i := range ids {
		if serial[i].ID != ids[i] {
			t.Fatalf("slot %d holds %s, want %s (order must follow the request)", i, serial[i].ID, ids[i])
		}
		if parallel[i].ID != ids[i] {
			t.Fatalf("parallel slot %d holds %s, want %s", i, parallel[i].ID, ids[i])
		}
		if serial[i].String() != parallel[i].String() {
			t.Errorf("%s renders differently under concurrency", ids[i])
		}
		if !reflect.DeepEqual(serial[i].Metrics, parallel[i].Metrics) {
			t.Errorf("%s metrics diverge under concurrency:\nserial:   %v\nparallel: %v",
				ids[i], serial[i].Metrics, parallel[i].Metrics)
		}
	}
}

func TestRunAllShort(t *testing.T) {
	results, err := RunAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 16 {
		t.Fatalf("%d results, want 16", len(results))
	}
	for i, r := range results {
		if want := fmt.Sprintf("E%d", i+1); r.ID != want {
			t.Errorf("slot %d holds %s, want %s", i, r.ID, want)
		}
	}
}
