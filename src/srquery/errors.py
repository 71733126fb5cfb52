"""The three kinds of failure a stage records against a cell, by whose
fault it is.  Every exception the stage runner records derives from
exactly one of them, beside the built-in it is (a ``ValueError``, a
``LookupError``), and an ``OSError`` counts as an input error.  This module
imports no other ``srquery`` module, so every one of them can import it.
"""


class ModelError(Exception):
    """The chat model answered, but the answer was unusable."""


class ServiceError(Exception):
    """The chat or Entrez service failed, or answered what it should not."""


class InputError(Exception):
    """What the run was given is at fault: the configuration, topics, seed
    queries, templates, fixtures, or a query stored in the run log."""
