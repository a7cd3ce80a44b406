import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert re.fullmatch(r"lambda_max=\S+ lambda_b=\S+ alpha=\S+ beta=\S+\n",
                        capsys.readouterr().out)
