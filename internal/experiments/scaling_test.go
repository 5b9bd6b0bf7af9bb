package experiments

import "testing"

// TestRunScalingSmall runs a scaled-down sweep and checks the table
// shape and the throughput figures.
func TestRunScalingSmall(t *testing.T) {
	p := ParamsScaling()
	p.Nodes = []int{500, 1500}
	p.Horizon = 2e4
	res, err := RunScaling(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Cells), len(p.Nodes); got != want {
		t.Fatalf("got %d cells, want %d", got, want)
	}
	for i, c := range res.Cells {
		if c.Nodes != p.Nodes[i] {
			t.Errorf("cell %d: nodes %d, want %d", i, c.Nodes, p.Nodes[i])
		}
		if c.WallSeconds <= 0 || c.SimSeconds <= 0 || c.NodeSimPerWall <= 0 {
			t.Errorf("cell %+v has non-positive timing", c)
		}
		if c.Flows < 1 || c.Completed < 0.5 {
			t.Errorf("cell n=%d: %d flows, completed %.2f — workload not exercising traffic",
				c.Nodes, c.Flows, c.Completed)
		}
	}
}

// TestRunScalingRejectsEmptySweep pins the validation path.
func TestRunScalingRejectsEmptySweep(t *testing.T) {
	if _, err := RunScaling(ScalingParams{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
}
