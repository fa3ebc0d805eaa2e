"""Show that the benchmark's output checks catch a tampered artifact.

Usage (from the root of a checkout)::

    python3 perfbench/tamper_check.py --workload ablate-mart --seed 1

Runs the workload's command twice, then, for every artifact in turn,
flips one byte in a copy of the second output directory and runs the
same checks the benchmark applies.  Each tampered copy must fail them
and the untouched copy must pass.  Exits 0 only if all of that holds.
"""

import argparse
import os
import shutil
import sys

import run


def flip_byte(path):
    with open(path, "r+b") as fh:
        data = bytearray(fh.read())
        middle = len(data) // 2
        data[middle] = ord("7") if data[middle] != ord("7") else ord("3")
        fh.seek(0)
        fh.write(data)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload = run.WORKLOADS[args.workload]
    artifacts = run.ARTIFACTS[workload["kind"]]
    n_topics = workload["shape"]["topics"]
    work = os.path.join(run.WORK, "tamper-%d" % os.getpid())
    in_dir = os.path.join(work, "inputs")
    os.makedirs(in_dir)
    try:
        cmd_args, _ = run.make_inputs(args.workload, workload, args.seed,
                                      in_dir)
        outs = []
        for i in range(2):
            out_dir = os.path.join(work, "out-%d" % i)
            os.makedirs(out_dir)
            cmd, _ = run.spawn(
                [sys.executable, "-m", "venuerec", *cmd_args,
                 "--out-dir", out_dir], work)
            outs.append((cmd, out_dir))
        first, first_dir = outs[0]
        reference, _, _ = run.check_outputs(first, first_dir, workload,
                                            artifacts, None, n_topics)
        cmd, out_dir = outs[1]
        run.check_outputs(cmd, out_dir, workload, artifacts, reference,
                          n_topics)
        ok = not first.errors and not cmd.errors
        print("untouched rerun: %s" % ("passes" if ok else "FAILS: %s"
                                       % (first.errors + cmd.errors)))
        for name in artifacts:
            copy = os.path.join(work, "tampered-" + name)
            shutil.copytree(out_dir, copy)
            flip_byte(os.path.join(copy, name))
            probe = run.Command(cmd.wall, cmd.rss_mb, cmd.code, cmd.stdout,
                                cmd.stderr)
            run.check_outputs(probe, copy, workload, artifacts, reference,
                              n_topics)
            caught = bool(probe.errors)
            ok = ok and caught
            print("%-22s %s" % (name, "caught: %s" % probe.errors[0]
                                if caught else "NOT CAUGHT"))
            shutil.rmtree(copy)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
