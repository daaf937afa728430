package core_test

import (
	"fmt"

	"repro/internal/core"
)

// ExampleAudit runs the static half of the paper's methodology and prints
// the funnel's inventory numbers.
func ExampleAudit() {
	res, err := core.Audit(core.AuditConfig{})
	if err != nil {
		panic(err)
	}
	f := res.Funnel()
	fmt.Println(f.SystemServices, f.NativeServices)
	fmt.Println(f.NativePaths, f.InitOnlyPaths, f.ReachablePaths)
	fmt.Println(f.Candidates)
	// Output:
	// 104 5
	// 147 67 80
	// 60
}
