package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module with the given files (paths
// relative to the module root) and returns the root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module example.com/m\n\ngo 1.24\n"
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runOn(t *testing.T, root string) (int, string) {
	t.Helper()
	var out strings.Builder
	code, err := run(root, []string{"internal"}, "allow.txt", &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	return code, out.String()
}

// TestDetectsHazards covers each check class, including a hazard in a
// package that imports another module-local package (exercising the
// module-aware importer).
func TestDetectsHazards(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/util/util.go": `package util

// Table is a lookup other packages range over.
type Table map[string]int
`,
		"internal/engine/engine.go": `package engine

import (
	"math/rand"
	"time"

	"example.com/m/internal/util"
)

func Order(tb util.Table) []string {
	var out []string
	for k := range tb {
		out = append(out, k)
	}
	return out
}

func Stamp() int64 { return time.Now().UnixNano() }

func Jitter() int { return rand.Int() }

func Spawn(fn func()) { go fn() }
`,
	})
	code, out := runOn(t, root)
	if code != 1 {
		t.Fatalf("expected failure, got code %d:\n%s", code, out)
	}
	for _, want := range []string{
		"internal/engine/engine.go:12: map-range",
		"(in Order)",
		"wallclock: time.Now",
		"wallclock: math/rand",
		"go-stmt",
		"(in Spawn)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The util package itself defines the map type but never ranges over
	// one — it must stay clean.
	if strings.Contains(out, "util/util.go") {
		t.Errorf("false positive in util:\n%s", out)
	}
}

// TestAllowlistSuppresses confirms a justified entry silences its finding
// and the run passes.
func TestAllowlistSuppresses(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/agg/agg.go": `package agg

// Sum folds map values; addition commutes, so order cannot leak.
func Sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
`,
		"allow.txt": "internal/agg/agg.go map-range Sum  # commutative fold, order-independent\n",
	})
	code, out := runOn(t, root)
	if code != 0 {
		t.Fatalf("allowlisted finding still fails (code %d):\n%s", code, out)
	}
	if !strings.Contains(out, "1 finding(s), all justified") {
		t.Fatalf("unexpected summary:\n%s", out)
	}
}

// TestStaleAllowlistEntryFails keeps the allowlist exact: an entry whose
// hazard no longer exists must fail the run.
func TestStaleAllowlistEntryFails(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/clean/clean.go": `package clean

func Nothing() {}
`,
		"allow.txt": "internal/clean/clean.go map-range Nothing  # was removed long ago\n",
	})
	code, out := runOn(t, root)
	if code != 1 {
		t.Fatalf("stale entry accepted (code %d):\n%s", code, out)
	}
	if !strings.Contains(out, "stale allowlist entry") {
		t.Fatalf("missing stale diagnostic:\n%s", out)
	}
}

// TestMethodAndGenericReceivers pins the allowlist key for methods
// (Recv.Name) and generic receivers (type parameters stripped).
func TestMethodAndGenericReceivers(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/g/g.go": `package g

type Box[T any] struct{ m map[string]T }

func (b *Box[T]) Keys() []string {
	var out []string
	for k := range b.m {
		out = append(out, k)
	}
	return out
}

type Plain struct{ m map[int]int }

func (p Plain) Walk() {
	for range p.m {
	}
}
`,
	})
	code, out := runOn(t, root)
	if code != 1 {
		t.Fatalf("expected failure, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, "(in Box.Keys)") || !strings.Contains(out, "(in Plain.Walk)") {
		t.Fatalf("receiver names not normalized:\n%s", out)
	}
}

// TestHostImportRule pins the observability boundary: sim-stack packages
// under internal/ must not import log/slog or the module's
// internal/hostobs, while the daemon-side packages (server, journal,
// faultpoint, hostobs and their subpackages) may.
func TestHostImportRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/hostobs/hostobs.go": `package hostobs

import "log/slog"

// L is the daemon-side logger; hostobs itself owns the slog dependency.
var L = slog.Default()

func Note(msg string) { L.Info(msg) }
`,
		"internal/engine/engine.go": `package engine

import (
	"log/slog"

	"example.com/m/internal/hostobs"
)

func Tick() {
	slog.Info("tick")
	hostobs.Note("tick")
}
`,
		"internal/server/server.go": `package server

import "example.com/m/internal/hostobs"

func Start() { hostobs.Note("up") }
`,
	})
	code, out := runOn(t, root)
	if code != 1 {
		t.Fatalf("expected failure, got code %d:\n%s", code, out)
	}
	for _, want := range []string{
		"internal/engine/engine.go:4: host-import: log/slog",
		"internal/engine/engine.go:6: host-import: internal/hostobs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The daemon-side packages own these imports — no findings there.
	if strings.Contains(out, "hostobs/hostobs.go") || strings.Contains(out, "server/server.go") {
		t.Errorf("false positive in a host-side package:\n%s", out)
	}
}

// TestBuildConstraints: a package that splits an implementation across an
// _amd64.go file (with a body-less stub, as for an assembly function) and
// a !amd64 counterpart declares their symbols once per build, so only the
// files this host's build includes may be typechecked together.
func TestBuildConstraints(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/k/k.go": `package k

// Sum dispatches to the kernel the build provides.
func Sum(b []byte) int {
	if useAsm {
		return sumAsm(b)
	}
	n := 0
	for _, c := range b {
		n += int(c)
	}
	return n
}
`,
		"internal/k/k_amd64.go": `package k

var useAsm = true

//go:noescape
func sumAsm(b []byte) int
`,
		"internal/k/k_other.go": `//go:build !amd64

package k

var useAsm = false

func sumAsm(b []byte) int { return 0 }
`,
	})
	code, out := runOn(t, root)
	if code != 0 {
		t.Fatalf("per-GOARCH files typechecked together (code %d):\n%s", code, out)
	}
}

// TestRepoIsClean runs the real gate over this repository: every hazard
// in internal/... must be justified in the committed allowlist. This is
// the same invariant `make staticcheck` enforces in CI.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run(root, []string{"internal"}, "tools/staticcheck/allowlist.txt", &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("repository has unjustified determinism hazards:\n%s", out.String())
	}
}
