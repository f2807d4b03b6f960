"""Build the paper's evaluation artifacts ``results/<name>.md``, declared in
``repro.experiments.TABLES``: every artifact when no name is given.

    spark-submit jobs/tables.py [<name> ...]

Per artifact, in order: compute its rows, run its shape check, and only
then write ``results/<name>.md`` and print it. A failing check raises
``AssertionError`` and leaves that artifact's file as it was. A rows
function that takes ``spark`` gets this job's session; only
``blocking_spark`` does, and only it builds one.
"""
import argparse
import inspect

from pyspark.sql import SparkSession

from repro.experiments import TABLES, render, write_result


def get_spark() -> SparkSession:
    return (
        SparkSession.builder.appName("tables")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    # no ``choices``: argparse rejects an empty ``nargs="*"`` list against them
    parser.add_argument("names", nargs="*", metavar="name",
                        help=f"any of {', '.join(TABLES)} (default: all)")
    names = parser.parse_args(argv).names or list(TABLES)
    if unknown := [n for n in names if n not in TABLES]:
        parser.error(f"unknown table(s): {', '.join(unknown)}")
    for i, name in enumerate(names):
        rows_fn, _, check = TABLES[name]
        kwargs = ({"spark": get_spark()}
                  if "spark" in inspect.signature(rows_fn).parameters else {})
        rows = rows_fn(**kwargs)
        check(rows)
        text = render(name, rows)
        write_result(name, text)
        print(("\n" if i else "") + text, end="", flush=True)


if __name__ == "__main__":
    main()
