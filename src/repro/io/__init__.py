"""Result serialization (JSON / CSV) for external plotting."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.io.serialize": (
            "dumps_json",
            "figure_to_csv",
            "to_jsonable",
            "write_csv",
            "write_json",
        ),
    },
)
