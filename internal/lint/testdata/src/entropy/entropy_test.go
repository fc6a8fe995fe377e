// Test-file fixture for ambient-entropy: _test.go files are typed
// through the package's test variant and answer to the same check,
// so global rand and clock reads are banned in tests too.
package entropy

import (
	"math/rand"
	"testing"
	"time"
)

func TestSeededOK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if rng.Float64() < 0 { // seeded stream: fine
		t.Fatal("impossible")
	}
}

func TestAmbientFlagged(t *testing.T) {
	_ = rand.Float64()  //!lint ambient-entropy
	_ = time.Now()      //!lint ambient-entropy
	_ = time.Unix(0, 0) // pure conversion: fine
	t.Log("fixture only; never executed")
}
