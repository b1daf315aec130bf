"""Documentation stays true: runnable snippets and consistent indexes."""

import pathlib
import re


ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestReadme:
    def test_quickstart_block_runs(self):
        """The README's quickstart snippet must execute as printed."""
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert blocks, "README lost its quickstart snippet"
        namespace = {}
        exec(compile(blocks[0], "<README quickstart>", "exec"), namespace)

    def test_examples_listed_exist(self):
        text = (ROOT / "README.md").read_text()
        for match in re.findall(r"python (examples/\w+\.py)", text):
            assert (ROOT / match).exists(), f"README references missing {match}"

    def test_all_examples_are_listed(self):
        text = (ROOT / "README.md").read_text()
        for path in (ROOT / "examples").glob("*.py"):
            assert f"examples/{path.name}" in text, (
                f"{path.name} missing from README"
            )


class TestDesignIndex:
    def test_benchmarks_mentioned_exist(self):
        """No doc or CI step names a deleted benchmark script."""
        for doc in (
            "DESIGN.md",
            "README.md",
            ".claude/skills/verify/SKILL.md",
            ".github/workflows/ci.yml",
        ):
            text = (ROOT / doc).read_text()
            for match in set(re.findall(r"benchmarks/(bench_\w+\.py)", text)):
                assert (ROOT / "benchmarks" / match).exists(), (
                    f"{doc} references missing benchmarks/{match}"
                )

    def test_all_figure_benches_indexed(self):
        text = (ROOT / "DESIGN.md").read_text()
        for path in (ROOT / "benchmarks").glob("bench_fig*.py"):
            assert path.name in text, f"{path.name} missing from DESIGN.md"

    def test_packages_mentioned_exist(self):
        text = (ROOT / "DESIGN.md").read_text()
        for dotted in set(re.findall(r"`repro\.([a-z_.]+)`", text)):
            parts = dotted.split(".")
            base = ROOT / "src" / "repro"
            candidates = [
                base.joinpath(*parts).with_suffix(".py"),
                base.joinpath(*parts) / "__init__.py",
            ]
            assert any(c.exists() for c in candidates), (
                f"DESIGN.md references missing module repro.{dotted}"
            )


class TestExperimentsDocument:
    def test_exists_with_required_sections(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for needle in (
            "Figure 14",
            "Figures 3, 4, 6, 7",
            "Figures 9–13",
            "qualitative claims",
        ):
            assert needle in text

    def test_covers_every_paper_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for figure in range(9, 14):
            assert f"Figure {figure}" in text


class TestPublicApiDocumented:
    def test_every_public_module_has_a_docstring(self):
        import importlib
        import pkgutil

        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith("__main__"):
                continue  # importing it runs the CLI
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"

    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None
