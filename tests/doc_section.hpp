// Markdown documents as test oracles: a test that computes what a document
// states reads the section that states it and compares, so the document
// cannot drift from the code.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "util/file.hpp"

namespace lar::test {

/// The text of the markdown file at `path` from the "## <heading> " line up
/// to the next "## " heading; empty, with a test failure, when there is none.
inline std::string docSection(const std::string& path,
                              const std::string& heading) {
    const std::string doc = util::readFile(path);
    const std::size_t begin = doc.find("\n## " + heading + " ");
    if (begin == std::string::npos) {
        ADD_FAILURE() << path << " has no section " << heading;
        return "";
    }
    const std::size_t end = doc.find("\n## ", begin + 1);
    return doc.substr(begin, end == std::string::npos ? end : end - begin);
}

} // namespace lar::test
