"""Stateful components: robots rules, cuckoo-filter URL-seen shards and
per-host politeness, held by one actor per partition (SURVEY.md §2.3)."""
