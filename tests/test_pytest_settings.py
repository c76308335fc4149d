from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_does_not_end_the_session(pytester):
    """Under the repo's own pytest settings, which turn warnings into errors, a failing
    ``@given`` test is reported as a failure and the tests after it still run."""
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(test_pair="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("test_pair.py")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
