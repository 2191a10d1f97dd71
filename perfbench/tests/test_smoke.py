"""One job of every workload runs and passes the checker."""

import pytest

import workloads


@pytest.mark.parametrize("name", ["bb72-gates", "gross-gates", "bb72-synth", "small-codes"])
def test_one_job_per_workload(name, tmp_path):
    wl = workloads.make(name, tmp_path, seed=7)
    wl.prepare()
    wl.setup_once()
    wl.prepare_inputs()
    jobs = wl.round()
    first = [jobs[0]]
    if first[0].label.startswith("find-gate"):
        first.append(jobs[1])  # its verify job reads the circuit it wrote
    for job in first:
        assert job.check(job.run()) is not None
    # the automorphism orders; small-codes' group closure needs whole rounds
    assert workloads.Workload.finish(wl) == 0
