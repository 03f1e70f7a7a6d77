package federation

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// resultOf builds a federated Result whose members hold the given job
// records (IDs only, tagged with the member and position in ExecTime).
func resultOf(members [][]int) *Result {
	res := &Result{Clusters: make([]ClusterResult, len(members))}
	for m, ids := range members {
		r := &sim.Result{}
		for k, id := range ids {
			r.Jobs = append(r.Jobs, sim.JobResult{Job: workload.Job{ID: id, ExecTime: float64(1000*m + k)}})
		}
		res.Clusters[m].Result = r
	}
	return res
}

// TestEachJobMatchesStableSort: the k-way merge equals a stable sort by ID
// of the members' records concatenated in member order — ID order, equal
// IDs in member-index order — for random member counts, empty members and
// duplicate IDs, and stops when the consumer does.
func TestEachJobMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		members := make([][]int, 1+r.Intn(9))
		for m := range members {
			ids := make([]int, r.Intn(12))
			for k := range ids {
				ids[k] = r.Intn(20)
			}
			sort.Ints(ids)
			members[m] = ids
		}
		res := resultOf(members)
		var want []sim.JobResult
		for _, c := range res.Clusters {
			want = append(want, c.Result.Jobs...)
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].Job.ID < want[b].Job.ID })
		got := slices.Collect(res.EachJob())
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) || res.NumJobs() != len(want) {
			t.Fatalf("trial %d: members %v: EachJob %v (NumJobs %d), want %v", trial, members, got, res.NumJobs(), want)
		}
		if len(want) > 1 {
			stop := r.Intn(len(want))
			n := 0
			for range res.EachJob() {
				if n++; n > stop {
					break
				}
			}
			if n != stop+1 {
				t.Fatalf("trial %d: consumer stopped after %d records, iterator ran to %d", trial, stop+1, n)
			}
		}
	}
}

// TestEachJobDuplicateIDsInMemberOrder pins the order of a job ID that
// reaches two members: the feed repeats IDs 3 and 5, round-robin routes
// the later-submitted copy of ID 3 to member 0, and the merged view yields
// member 0's record of each ID before member 1's, whatever the submission
// order.
func TestEachJobDuplicateIDsInMemberOrder(t *testing.T) {
	tr := &workload.Trace{Name: "dup", Nodes: 4, NodeMemGB: 8}
	for i, id := range []int{5, 3, 3, 5} {
		tr.Jobs = append(tr.Jobs, workload.Job{
			ID: id, Submit: float64(10 * i), Tasks: 1, CPUNeed: 0.5, MemReq: 0.25, ExecTime: 100,
		})
	}
	fed, err := New(Spec{
		TraceName:       tr.Name,
		NodeMemGB:       tr.NodeMemGB,
		Members:         []MemberSpec{{Nodes: 4}, {Nodes: 4}},
		Dispatcher:      "roundrobin",
		Algorithm:       "dynmcb8-asap-per",
		CheckInvariants: true,
	}, workload.NewSliceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for jr := range res.EachJob() {
		got = append(got, jr.Job.Submit)
	}
	// Member 0 took the arrivals at 0 (ID 5) and 20 (ID 3), member 1 those
	// at 10 (ID 3) and 30 (ID 5).
	if want := []float64{20, 10, 0, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("merged submissions %v, want %v (ID 3 then 5, member 0's record first)", got, want)
	}
	if res.NumJobs() != 4 || res.Summary.Jobs != 4 {
		t.Errorf("NumJobs %d, Summary.Jobs %d, want 4", res.NumJobs(), res.Summary.Jobs)
	}
}
