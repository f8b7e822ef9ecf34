"""Golden fixture: a cross-module call edge for call resolution."""

from helpers import mutate_store


def touch(store) -> None:
    mutate_store(store)
