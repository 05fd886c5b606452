"""Print the fields that moved between the outputs of two checkouts.

Run from a checkout, with the numpy the package needs:

    python3 tools/report_diff.py OTHER_CHECKOUT --seed 0 --seed 4

``tools/report_digests.py`` of this checkout runs twice, on the package of
``OTHER_CHECKOUT`` (old) and on this one (new), each dumping its outputs.
For every output whose bytes differ, the tool prints the output's name and
then one line per moved field, ``  <path>: <old> -> <new>``:

* a JSON report or op output is compared value by value; a path is a chain
  of object keys and list items, an item that is an object with a ``name``
  named by it (``identities[bianchi_contracted].max_residual``);
* a console output (exit code, stdout, stderr) is compared part by part,
  stdout as JSON when both sides parse, else line by line.

Values print as JSON.  The last line counts the moved outputs.  The tool
exits 1 when either digest run exits with anything but 0 (its stderr is
passed on), else 0, whether or not anything moved.  Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _digests(checkout: Path, dump: Path, seeds: list[int]) -> tuple[dict[str, str], int]:
    """Name -> digest of every output of ``checkout``'s package, dumped under
    ``dump``, and the exit code of the run."""
    argv = [sys.executable, str(HERE / "report_digests.py"), "--root", str(checkout)]
    argv += ["--dump", str(dump)] + [f"--seed={seed}" for seed in seeds]
    run = subprocess.run(argv, capture_output=True, text=True)
    sys.stderr.write(run.stderr)
    lines = dict(line.rsplit(" ", 1) for line in run.stdout.splitlines())
    return lines, run.returncode


def _label(item, index: int) -> str:
    if isinstance(item, dict) and isinstance(item.get("name"), str):
        return item["name"]
    return str(index)


def field_diff(old, new, path: str = "") -> list[str]:
    """One ``path: old -> new`` line per leaf value that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in list(old) + [k for k in new if k not in old]:
            sub = f"{path}.{key}" if path else str(key)
            if key not in new:
                lines.append(f"{sub}: {json.dumps(old[key])} -> (absent)")
            elif key not in old:
                lines.append(f"{sub}: (absent) -> {json.dumps(new[key])}")
            else:
                lines += field_diff(old[key], new[key], sub)
        return lines
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        lines = []
        for i, (a, b) in enumerate(zip(old, new)):
            lines += field_diff(a, b, f"{path}[{_label(a, i)}]")
        return lines
    if old == new and type(old) is type(new):
        return []
    return [f"{path or '(whole)'}: {json.dumps(old)} -> {json.dumps(new)}"]


def _json(data: bytes):
    try:
        return json.loads(data)
    except ValueError:
        return None


def _text_diff(old: str, new: str, what: str) -> list[str]:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    lines = []
    matcher = difflib.SequenceMatcher(a=old_lines, b=new_lines, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            lines += [f"{what} - {line}" for line in old_lines[i1:i2]]
            lines += [f"{what} + {line}" for line in new_lines[j1:j2]]
    return lines


def output_diff(name: str, old: bytes | None, new: bytes | None) -> list[str]:
    """The moved fields of one output, ``None`` being no output at all."""
    if old is None or new is None:
        return [f"(output): {'absent' if old is None else 'present'} -> "
                f"{'absent' if new is None else 'present'}"]
    if name.endswith(".console"):
        lines = []
        (old_exit, old_rest), (new_exit, new_rest) = (b.split(b"\n", 1) for b in (old, new))
        if old_exit != new_exit:
            lines.append(f"exit: {old_exit.decode()} -> {new_exit.decode()}")
        (old_out, old_err), (new_out, new_err) = (b.split(b"\0", 1) for b in (old_rest, new_rest))
        return lines + _content_diff(old_out, new_out, "stdout") + _content_diff(
            old_err, new_err, "stderr"
        )
    return _content_diff(old, new, "")


def _content_diff(old: bytes, new: bytes, what: str) -> list[str]:
    if old == new:
        return []
    a, b = _json(old), _json(new)
    if a is not None and b is not None:
        return [f"{what}:{line}" if what else line for line in field_diff(a, b)]
    return _text_diff(old.decode(errors="replace"), new.decode(errors="replace"), what or "text")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with (old)")
    parser.add_argument(
        "--seed", type=int, action="append", default=[], help="benchmark seed (repeatable)"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        dumps = Path(tmp) / "old", Path(tmp) / "new"
        (old, old_exit), (new, new_exit) = (
            _digests(checkout.resolve(), dump, args.seed)
            for checkout, dump in zip((args.other, ROOT), dumps)
        )
        moved = [name for name in old | new if old.get(name) != new.get(name)]
        moved.sort(key=list(old | new).index)
        for name in moved:
            old_bytes, new_bytes = (
                (dump / name).read_bytes() if (dump / name).exists() else None for dump in dumps
            )
            print(name)
            for line in output_diff(name, old_bytes, new_bytes):
                print(f"  {line}")
    print(f"{len(moved)} of {len(old | new)} outputs moved")
    return 1 if old_exit or new_exit else 0


if __name__ == "__main__":
    sys.exit(main())
