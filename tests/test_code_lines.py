"""``scripts/code_lines.py``: code lines per module, without blanks, comments or docstrings."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "code_lines.py"

MODULE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves the line code

# a comment line


class Box:
    """Class docstring."""

    def area(self):
        """Function docstring,

        over three lines."""
        text = """a string that is no docstring
        counts on each of its lines"""
        return (math.pi,
                text)
'''


def test_counts_code_lines_and_the_change_against_another_tree(tmp_path):
    # code: import, class, def, and the two lines each of the assignment and the return
    (tmp_path / "pslwave").mkdir()
    (tmp_path / "pslwave" / "toy.py").write_text(MODULE)
    proc = subprocess.run([sys.executable, str(SCRIPT), "--against", str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[1:]}
    assert rows["toy.py"] == ["0", "7", "-7"]
    ours = [int(row[0]) for name, row in rows.items() if name != "total"]
    cli = rows["cli.py"]  # a module only this tree has
    assert int(cli[0]) > 0 and cli[1:] == ["0", f"+{cli[0]}"]
    assert rows["total"] == [str(sum(ours)), "7", f"{sum(ours) - 7:+d}"]
