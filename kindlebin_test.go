package kindle_test

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// The smoke tests drive the real cmd/kindle binary. kindleBinary builds it
// once per test process into binDir, which TestMain removes on exit.
var (
	binOnce sync.Once
	binDir  string
	binPath string
	binErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// kindleBinary returns the path of cmd/kindle built from this checkout,
// building it on first use. It skips t when no go toolchain is on PATH and
// fails t when the build fails.
func kindleBinary(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() { binPath, binErr = buildKindle() })
	if errors.Is(binErr, exec.ErrNotFound) {
		t.Skip("go toolchain not on PATH")
	}
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binPath
}

func buildKindle() (string, error) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		return "", err
	}
	if binDir, err = os.MkdirTemp("", "kindle-smoke-"); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "kindle")
	if out, err := exec.Command(gobin, "build", "-o", bin, "./cmd/kindle").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/kindle: %v\n%s", err, out)
	}
	return bin, nil
}
