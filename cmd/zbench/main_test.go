package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestUnknownExperimentExits2(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-exp", "e7"}, io.Discard, &stderr, registry); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "e7"`) {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestRegistryIDsUniqueAndInUsage(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-h"}, io.Discard, &stderr, registry); code != 0 {
		t.Fatalf("-h exit = %d", code)
	}
	m := regexp.MustCompile(`experiment id: (\S+) or all`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no -exp id list in usage:\n%s", stderr.String())
	}
	inUsage := map[string]bool{}
	for _, id := range strings.Split(m[1], ",") {
		inUsage[id] = true
	}
	seen := map[string]bool{}
	for _, e := range registry {
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if !inUsage[e.ID] {
			t.Errorf("id %q missing from usage %q", e.ID, m[1])
		}
	}
}

func TestJSONWritesBenchFileIntoDir(t *testing.T) {
	dir := t.TempDir()
	if code := run([]string{"-exp", "e5", "-quick", "-json", dir}, io.Discard, os.Stderr, registry); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_e5.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tbl experiments.Table
	if err := json.Unmarshal(data, &tbl); err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "E5" || len(tbl.Rows) == 0 {
		t.Errorf("BENCH_e5.json = %+v", tbl)
	}
}

// -exp all writes one file per experiment instead of overwriting one.
func TestAllWritesOneFilePerExperiment(t *testing.T) {
	stub := func(id string) experiment {
		return experiment{id, func(bool, int64) (*experiments.Table, any, error) {
			return &experiments.Table{ID: id}, map[string]string{"id": id}, nil
		}}
	}
	dir := t.TempDir()
	if code := run([]string{"-exp", "all", "-json", dir}, io.Discard, os.Stderr,
		[]experiment{stub("a"), stub("b")}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, id := range []string{"a", "b"} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]string
		if err := json.Unmarshal(data, &got); err != nil || got["id"] != id {
			t.Errorf("BENCH_%s.json = %s (%v)", id, data, err)
		}
	}
}
