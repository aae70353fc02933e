"""Driver-contract simulation: every ``queries()`` entry runs at sf0.001
and, when an ``oracle_sql()`` twin exists, must match DuckDB on row count,
column names and values — the same compare the real driver performs at
sf0.01."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

import __ray_entry__ as E

SF_DIR = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def _to_df(result) -> pd.DataFrame:
    if isinstance(result, pa.Table):
        df = result.to_pandas()
    elif isinstance(result, pd.DataFrame):
        df = result
    else:  # ray Dataset
        df = result.to_pandas()
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return c


@pytest.fixture(scope="module")
def query_fns(ray_session):
    return E.queries()


ORACLE_NAMES = sorted(E.oracle_sql())
ALL_NAMES = sorted(E.queries())


def test_every_oracle_has_a_query():
    assert set(ORACLE_NAMES) <= set(ALL_NAMES)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_query_matches_oracle(name, con, query_fns):
    got = _to_df(query_fns[name](SF_DIR))
    want = _to_df(con.execute(E.oracle_sql()[name]).df())
    assert list(got.columns) == list(want.columns), (got.columns, want.columns)
    assert len(got) == len(want), (len(got), len(want))
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


@pytest.mark.parametrize("name", sorted(set(ALL_NAMES) - set(ORACLE_NAMES)))
def test_rows_only_queries_run(name, query_fns):
    got = _to_df(query_fns[name](SF_DIR))
    assert got.shape[1] >= 1
    # deterministic: second run returns identical rows
    again = _to_df(query_fns[name](SF_DIR))
    pd.testing.assert_frame_equal(got, again)


def test_entry_smoke(ray_session):
    from mdvalidate_ray.corpus import doc_id_for_index, expected_fail_mode

    res = E.entry()
    df = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
    assert set(df.columns) == {"doc_id", "passed", "captures", "n_spans",
                               "n_violations"}
    n = E.Q._docs_count(E.SF_SMOKE)
    assert len(df) == df["doc_id"].nunique() == n
    failing = {doc_id_for_index(i, n) for i in range(n)
               if expected_fail_mode(i) is not None}
    assert set(df.loc[~df["passed"], "doc_id"]) == failing
    assert (df.loc[~df["passed"], "n_violations"] > 0).all()
