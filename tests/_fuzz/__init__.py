"""The structured mutator the fail-closed sweep of ``test_fail_closed.py`` runs.

Nothing under ``src/`` imports it.
"""
