package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeededViolations lints a throwaway module seeded with one
// violation per analyzer class vbslint can reach without this
// repository's types, plus a malformed suppression directive, and
// checks each one is reported.
func TestSeededViolations(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module seeded\n\ngo 1.24\n")
	write("seeded.go", `package seeded

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

type state struct {
	mu   sync.Mutex
	hits atomic.Uint64
}

func wrap(err error) error {
	return fmt.Errorf("load: %v", err)
}

func fetch(s *state) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := http.Get("http://example.invalid/")
	return err
}

func snapshot(s *state) atomic.Uint64 {
	//vbslint:ignore
	return s.hits
}
`)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-vet=false", "-C", dir, "."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, needle := range []string{"(errwrap)", "(lockio)", "(atomicfaults)", "malformed //vbslint:ignore"} {
		if !strings.Contains(out, needle) {
			t.Errorf("output does not mention %q:\n%s", needle, out)
		}
	}
}

// TestSuppressedViolation checks a well-formed directive silences the
// finding and flips the exit status to 0.
func TestSuppressedViolation(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module seeded\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package seeded

import "fmt"

func wrap(err error) error {
	//vbslint:ignore errwrap flattening is deliberate: logged, never matched
	return fmt.Errorf("load: %v", err)
}
`
	if err := os.WriteFile(filepath.Join(dir, "seeded.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-vet=false", "-C", dir, "."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// TestCleanTree lints this repository, tests included, and demands
// zero findings: the tree must stay clean against its own invariants.
// (go vet is exercised by the CI lint job via make lint; skipping it
// here keeps the test hermetic to the analyzer suite.)
func TestCleanTree(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd)) // cmd/vbslint -> module root
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-vet=false", "-C", root, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("vbslint on the tree: exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// TestListFlag checks -list names every analyzer in the suite.
func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"errwrap", "poolescape", "lockio", "atomicfaults", "metricreg"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}
