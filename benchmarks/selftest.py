"""Self-test of the benchmark's output checks.

    python3 benchmarks/selftest.py

Runs a small synth -> eval flow in-process, requires ``checks.check_cli_flow``
to pass on the real outputs, then corrupts one output at a time and requires
the checks to fail on each: two orders swapped in the ``rank`` output, a row
dropped from the ``gt-gen`` output, one ``gt-discrepancy`` offset changed and
one ``.feat`` value changed.  Exits 0 when every case behaves as required.
"""
from __future__ import annotations

import shutil
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _rewrite_lines(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def swap_two_orders(d: Path) -> None:
    def edit(lines):
        rows = [line.rstrip("\n").split(",") for line in lines[1:]]
        for a, b in zip(range(len(rows)), range(1, len(rows))):
            if rows[a][0] == rows[b][0] and rows[a][2] != rows[b][2]:
                rows[a][2], rows[b][2] = rows[b][2], rows[a][2]
                return [lines[0]] + [",".join(r) + "\n" for r in rows]
        raise AssertionError("no scene with two distinct orders")

    _rewrite_lines(d / "pred.csv", edit)


def drop_gt_row(d: Path) -> None:
    _rewrite_lines(d / "gt.csv", lambda lines: lines[:3] + lines[4:])


def change_offset(d: Path) -> None:
    def edit(lines):
        t, offset = lines[2].strip().split(",")
        return lines[:2] + [f"{t},{int(offset) + 1}\n"] + lines[3:]

    _rewrite_lines(d / "disc.csv", edit)


def change_feature(d: Path) -> None:
    path = sorted((d / "pre" / "features").glob("*.feat"))[0]
    data = bytearray(path.read_bytes())
    (value,) = struct.unpack_from("<d", data, 4)
    struct.pack_into("<d", data, 4, value + 0.01)  # row 0, fixation-share column
    path.write_bytes(bytes(data))


CORRUPTIONS = {
    "rank: two orders swapped": swap_two_orders,
    "gt-gen: a row dropped": drop_gt_row,
    "gt-discrepancy: an offset changed": change_offset,
    "features: a value changed": change_feature,
}


def main() -> int:
    base = ROOT / ".benchrun" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    flow = workloads.CliFlow()
    flow.scenes = 12
    output, attempted, failed = flow.run({"seed": 11, "work": base})
    ok = failed == 0
    problems, quality = checks.check_cli_flow(output.directory)
    print(f"real outputs: {len(problems)} problems, {quality} -> {'ok' if not problems else 'FAIL'}")
    for p in problems:
        print(f"  {p}")
    ok = ok and not problems
    for label, corrupt in CORRUPTIONS.items():
        copy = base / "corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(output.directory, copy)
        corrupt(copy)
        problems, _ = checks.check_cli_flow(copy)
        caught = bool(problems)
        ok = ok and caught
        print(f"{label}: {'caught' if caught else 'MISSED'}" + (f" ({problems[0][:100]})" if caught else ""))
    shutil.rmtree(base, ignore_errors=True)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
